package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// TestChainFaultsOnInterCubeLink: a 2-cube chain with a fault plan
// installed only on the far cube — the device whose links model the
// inter-cube hop — must still deliver every forwarded request and its
// response; recovery happens hop-by-hop at the faulting cube's link
// layer, invisible to the host beyond added latency.
func TestChainFaultsOnInterCubeLink(t *testing.T) {
	cfg := config.FourLink4GB()
	s, err := New(cfg, WithDevices(2, KindChain))
	if err != nil {
		t.Fatal(err)
	}
	// Faults only on cube 1: cube 0's links stay clean, so any retry
	// traffic recorded there would mean the fault leaked across the hop.
	far := s.Devices()[1]
	if err := far.SetFaultPlan(fault.Plan{Rate: 0.10, Seed: 77}); err != nil {
		t.Fatal(err)
	}

	const n = 50
	sent := 0
	acks := 0
	for c := 0; c < 20000 && acks < n; c++ {
		for sent < n {
			r := &packet.Rqst{Cmd: hmccmd.WR16, CUB: 1, ADRS: uint64(sent) * 64,
				TAG: uint16(sent), SLID: uint8(sent % cfg.Links),
				Payload: []uint64{uint64(sent) + 500, 0}}
			if err := s.Send(sent%cfg.Links, r); err != nil {
				break
			}
			sent++
		}
		s.Clock()
		for link := 0; link < cfg.Links; link++ {
			for {
				rsp, ok := s.Recv(link)
				if !ok {
					break
				}
				if int(rsp.CUB) != 1 {
					t.Fatalf("response from cube %d, want 1", rsp.CUB)
				}
				acks++
			}
		}
	}
	if acks != n {
		t.Fatalf("only %d/%d forwarded writes acknowledged", acks, n)
	}
	for i := 0; i < n; i++ {
		v, err := far.Store().ReadUint64(uint64(i) * 64)
		if err != nil || v != uint64(i)+500 {
			t.Errorf("word %d = %d, %v", i, v, err)
		}
	}
	farSt := far.Stats()
	if farSt.LinkRetries == 0 {
		t.Error("no retries on the faulted inter-cube hop")
	}
	if farSt.CRCErrors+farSt.Drops+farSt.DownWindows == 0 {
		t.Errorf("no faults recorded on cube 1: %+v", farSt)
	}
	nearSt := s.Devices()[0].Stats()
	if nearSt.LinkRetries != 0 || nearSt.CRCErrors != 0 {
		t.Errorf("faults leaked to the clean cube: %+v", nearSt)
	}
	if s.forwardedRqsts != uint64(n) {
		t.Errorf("forwarded %d requests, want %d", s.forwardedRqsts, n)
	}
}

// TestChainFaultDeterminism: the same seed on the inter-cube link yields
// identical fault counters across runs.
func TestChainFaultDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		s, err := New(config.TwoGBDev(), WithDevices(2, KindChain))
		if err != nil {
			t.Fatal(err)
		}
		far := s.Devices()[1]
		if err := far.SetFaultPlan(fault.Plan{Rate: 0.10, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		acks := 0
		for i := 0; i < 30; i++ {
			r := &packet.Rqst{Cmd: hmccmd.RD16, CUB: 1, ADRS: uint64(i) * 64, TAG: uint16(i)}
			if err := s.Send(0, r); err != nil {
				t.Fatal(err)
			}
			for acks <= i {
				s.Clock()
				if _, ok := s.Recv(0); ok {
					acks++
				}
			}
		}
		st := far.Stats()
		return st.LinkRetries, st.CRCErrors + st.Drops + st.DownWindows
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1 != r2 || f1 != f2 {
		t.Errorf("same seed diverged: retries %d/%d faults %d/%d", r1, r2, f1, f2)
	}
	if f1 == 0 {
		t.Error("10% plan fired nothing")
	}
}
