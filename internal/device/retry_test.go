package device

import (
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/trace"
)

// TestLinkRetryDelaysFaultedPacket: with every-2nd-packet fault injection
// the second request pays the retry latency, and all responses still
// arrive intact.
func TestLinkRetryDelaysFaultedPacket(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.LinkFaultPeriod = 2
	cfg.LinkRetryCycles = 8
	rec := trace.NewRecorder(trace.LevelStall)
	d, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Observe(TraceSink(d, rec))
	// Two requests on link 0: the second traversal gets corrupted.
	for i := 0; i < 2; i++ {
		r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 64, TAG: uint16(i)}
		if err := d.Send(0, r); err != nil {
			t.Fatal(err)
		}
	}
	arrivals := map[uint16]uint64{}
	for c := 0; c < 30 && len(arrivals) < 2; c++ {
		d.Clock()
		for {
			rsp, ok := d.Recv(0)
			if !ok {
				break
			}
			arrivals[rsp.TAG] = d.Cycle()
		}
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	if arrivals[0] != 3 {
		t.Errorf("unfaulted request arrived at %d, want 3", arrivals[0])
	}
	// The faulted request pays roughly the retry latency on top.
	if delta := arrivals[1] - arrivals[0]; delta < 8 {
		t.Errorf("faulted request delayed only %d cycles, want >= 8", delta)
	}
	if d.Stats().LinkRetries == 0 {
		t.Error("no retries counted")
	}
	// The retry is visible in the trace.
	found := false
	for _, e := range rec.OfKind(trace.LevelStall) {
		if e.Detail == "link CRC fault: retry sequence" {
			found = true
		}
	}
	if !found {
		t.Error("retry not traced")
	}
}

// TestLinkRetryResponsesAlsoFault: the response direction goes through
// the same injector — with period 2, the second packet faults on the way
// in AND its response faults on the way out.
func TestLinkRetryResponsesAlsoFault(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.LinkFaultPeriod = 2
	cfg.LinkRetryCycles = 4
	d, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, TAG: uint16(i), ADRS: uint64(i) * 64}); err != nil {
			t.Fatal(err)
		}
	}
	var last uint64
	got := 0
	for c := 0; c < 60 && got < 2; c++ {
		d.Clock()
		for {
			if _, ok := d.Recv(0); !ok {
				break
			}
			got++
			last = d.Cycle()
		}
	}
	if got != 2 {
		t.Fatalf("got %d responses", got)
	}
	// Clean path is 3 cycles; the second packet pays a retry in each
	// direction: >= 3 + 2*4.
	if last < 11 {
		t.Errorf("second round trip finished at %d, want >= 11 with both directions faulting", last)
	}
	if d.Stats().LinkRetries != 2 {
		t.Errorf("retries = %d, want 2 (one per direction)", d.Stats().LinkRetries)
	}
}

// TestLinkRetryPreservesCorrectness: a contended mutex-style run with
// fault injection completes with intact data.
func TestLinkRetryPreservesCorrectness(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.LinkFaultPeriod = 5
	d, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 20 writes then 20 reads across vaults; every value must survive.
	for i := 0; i < 20; i++ {
		r := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: uint64(i) * 64, TAG: uint16(i),
			SLID: uint8(i % 4), Payload: []uint64{uint64(i) + 100, 0}}
		if err := d.Send(i%4, r); err != nil {
			t.Fatal(err)
		}
	}
	acks := 0
	for c := 0; c < 400 && acks < 20; c++ {
		d.Clock()
		for link := 0; link < 4; link++ {
			for {
				if _, ok := d.Recv(link); !ok {
					break
				}
				acks++
			}
		}
	}
	if acks != 20 {
		t.Fatalf("only %d writes acknowledged", acks)
	}
	for i := 0; i < 20; i++ {
		v, err := d.Store().ReadUint64(uint64(i) * 64)
		if err != nil || v != uint64(i)+100 {
			t.Errorf("word %d = %d, %v", i, v, err)
		}
	}
	if d.Stats().LinkRetries == 0 {
		t.Error("fault injection never fired")
	}
}

// TestFaultInjectionDisabledByDefault: the default configuration injects
// nothing.
func TestFaultInjectionDisabledByDefault(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	for i := 0; i < 10; i++ {
		if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, TAG: uint16(i), ADRS: uint64(i) * 64}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 10; c++ {
		d.Clock()
		for {
			if _, ok := d.Recv(0); !ok {
				break
			}
		}
	}
	if d.Stats().LinkRetries != 0 {
		t.Errorf("retries = %d with injection disabled", d.Stats().LinkRetries)
	}
}
