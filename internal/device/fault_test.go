package device

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// driveWrites pushes n WR16 requests round-robin across the device's
// links, clocks until every ack arrives (or maxCycles elapses), and
// returns the ack count.
func driveWrites(t *testing.T, d *Device, n, maxCycles int) int {
	t.Helper()
	links := len(d.ports)
	sent := 0
	acks := 0
	for c := 0; c < maxCycles && acks < n; c++ {
		for sent < n {
			r := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: uint64(sent) * 64, TAG: uint16(sent),
				SLID: uint8(sent % links), Payload: []uint64{uint64(sent) + 1000, 0}}
			if err := d.Send(sent%links, r); err != nil {
				break // stalled: retry after a clock
			}
			sent++
		}
		d.Clock()
		for link := 0; link < links; link++ {
			for {
				if _, ok := d.Recv(link); !ok {
					break
				}
				acks++
			}
		}
	}
	return acks
}

// TestFaultPlanRecoversAllPackets: at a heavy injected fault rate with
// every kind enabled, every write is still acknowledged and every value
// lands in memory — faults delay packets, never lose them.
func TestFaultPlanRecoversAllPackets(t *testing.T) {
	cfg := config.FourLink4GB()
	d, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetFaultPlan(fault.Plan{Rate: 0.10, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	const n = 60
	if acks := driveWrites(t, d, n, 5000); acks != n {
		t.Fatalf("only %d/%d writes acknowledged", acks, n)
	}
	for i := 0; i < n; i++ {
		v, err := d.Store().ReadUint64(uint64(i) * 64)
		if err != nil || v != uint64(i)+1000 {
			t.Errorf("word %d = %d, %v", i, v, err)
		}
	}
	st := d.Stats()
	if st.LinkRetries == 0 {
		t.Error("10% fault rate fired no retries")
	}
	if st.CRCErrors+st.Drops+st.DownWindows == 0 {
		t.Errorf("no faults recorded: %+v", st)
	}
}

// TestFaultPlanDeterminism: two devices with the same plan and the same
// traffic record identical fault and retry counters; a different seed
// diverges.
func TestFaultPlanDeterminism(t *testing.T) {
	run := func(seed uint64) Stats {
		d, err := New(0, config.FourLink4GB())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetFaultPlan(fault.Plan{Rate: 0.08, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if acks := driveWrites(t, d, 40, 5000); acks != 40 {
			t.Fatalf("seed %d: %d/40 acks", seed, acks)
		}
		return d.Stats()
	}
	a, b := run(5), run(5)
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if c := run(6); a == c {
		t.Error("different seeds produced identical stats")
	}
}

// TestFaultKindsIsolated: restricting the plan to one kind fires only
// that kind's counters.
func TestFaultKindsIsolated(t *testing.T) {
	cases := []struct {
		kinds fault.Kind
		check func(t *testing.T, st Stats)
	}{
		{fault.CRC, func(t *testing.T, st Stats) {
			if st.CRCErrors == 0 || st.Drops != 0 || st.DownWindows != 0 {
				t.Errorf("crc-only: %+v", st)
			}
		}},
		{fault.Drop, func(t *testing.T, st Stats) {
			if st.Drops == 0 || st.CRCErrors != 0 || st.DownWindows != 0 {
				t.Errorf("drop-only: %+v", st)
			}
		}},
		{fault.Down, func(t *testing.T, st Stats) {
			if st.DownWindows == 0 || st.CRCErrors != 0 || st.Drops != 0 {
				t.Errorf("down-only: %+v", st)
			}
			if st.LinkRetries != 0 {
				t.Errorf("down windows counted as retries: %+v", st)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.kinds.String(), func(t *testing.T) {
			d, err := New(0, config.FourLink4GB())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SetFaultPlan(fault.Plan{Rate: 0.15, Seed: 3, Kinds: c.kinds}); err != nil {
				t.Fatal(err)
			}
			if acks := driveWrites(t, d, 40, 8000); acks != 40 {
				t.Fatalf("%d/40 acks", acks)
			}
			c.check(t, d.Stats())
		})
	}
}

// TestFaultZeroPlanMatchesDefault: installing a disabled plan leaves the
// device's stats bit-identical to a device with no plan at all.
func TestFaultZeroPlanMatchesDefault(t *testing.T) {
	run := func(install bool) Stats {
		d, err := New(0, config.FourLink4GB())
		if err != nil {
			t.Fatal(err)
		}
		if install {
			if err := d.SetFaultPlan(fault.Plan{Rate: 0}); err != nil {
				t.Fatal(err)
			}
		}
		if acks := driveWrites(t, d, 40, 1000); acks != 40 {
			t.Fatalf("%d/40 acks", acks)
		}
		return d.Stats()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("disabled plan perturbed stats:\n%+v\n%+v", a, b)
	}
}

// TestFaultRetryStamping: with an active plan, delivered responses carry
// the retry-protocol stamp — SEQ counts in 3-bit sequence and RRP
// acknowledges the request direction's FRP.
func TestFaultRetryStamping(t *testing.T) {
	d, err := New(0, config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	// Active plan whose kinds never corrupt anything would be ideal, but
	// kinds can't be empty on an enabled plan; a tiny rate with a seed
	// that stays clean over this short run does the job.
	if err := d.SetFaultPlan(fault.Plan{Rate: 1e-9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint8
	var rrps []uint16
	for i := 0; i < 12; i++ {
		if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 64, TAG: uint16(i)}); err != nil {
			t.Fatal(err)
		}
		for len(seqs) <= i {
			d.Clock()
			if rsp, ok := d.Recv(0); ok {
				seqs = append(seqs, rsp.SEQ)
				rrps = append(rrps, rsp.RRP)
			}
		}
	}
	for i, s := range seqs {
		if want := uint8(i % RetrySlots); s != want {
			t.Errorf("response %d: SEQ = %d, want %d", i, s, want)
		}
	}
	// Every response acknowledges a request that already crossed, so its
	// RRP names a valid retry-buffer slot.
	for i, r := range rrps {
		if int(r) >= RetrySlots {
			t.Errorf("response %d: RRP = %d out of slot range", i, r)
		}
	}
}

// TestPoisonedRqstRejected: a poisoned read gets a DINV error response
// with ErrstatPoisoned instead of data; a poisoned posted write is
// dropped and latches the error register.
func TestPoisonedRqstRejected(t *testing.T) {
	d, err := New(0, config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 1, Pb: true}); err != nil {
		t.Fatal(err)
	}
	var rsp *packet.Rsp
	for c := 0; c < 10 && rsp == nil; c++ {
		d.Clock()
		rsp, _ = d.Recv(0)
	}
	if rsp == nil {
		t.Fatal("no response to poisoned read")
	}
	if rsp.Cmd != hmccmd.RspError || rsp.ERRSTAT != ErrstatPoisoned || !rsp.DINV {
		t.Errorf("poisoned read response: cmd=%v errstat=%#x dinv=%v", rsp.Cmd, rsp.ERRSTAT, rsp.DINV)
	}

	// Posted path: no response channel, so the error register latches.
	if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.PWR16, ADRS: 64, TAG: 2, Pb: true,
		Payload: []uint64{0xDEAD, 0}}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		d.Clock()
	}
	errReg, err := d.Regs().Read(RegERR)
	if err != nil {
		t.Fatal(err)
	}
	if errReg&ErrBitPoisonFault == 0 {
		t.Errorf("ERR register %#x missing poison bit", errReg)
	}
	if v, _ := d.Store().ReadUint64(64); v == 0xDEAD {
		t.Error("poisoned posted write executed")
	}
	if st := d.Stats(); st.PoisonedRqsts != 2 {
		t.Errorf("PoisonedRqsts = %d, want 2", st.PoisonedRqsts)
	}
}

// TestPeriodicAndRandomInjectorsCompose: the legacy periodic injector
// keeps its timing when a random plan is active alongside it.
func TestPeriodicAndRandomInjectorsCompose(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.LinkFaultPeriod = 2
	cfg.LinkRetryCycles = 8
	d, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetFaultPlan(fault.Plan{Rate: 1e-9, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 64, TAG: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	arrivals := map[uint16]uint64{}
	for c := 0; c < 40 && len(arrivals) < 2; c++ {
		d.Clock()
		for {
			rsp, ok := d.Recv(0)
			if !ok {
				break
			}
			arrivals[rsp.TAG] = d.Cycle()
		}
	}
	if arrivals[0] != 3 {
		t.Errorf("unfaulted request arrived at %d, want 3", arrivals[0])
	}
	if delta := arrivals[1] - arrivals[0]; delta < 8 {
		t.Errorf("periodic fault delayed only %d cycles, want >= 8", delta)
	}
}
