package workload

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/span"
)

// TestSessionPoolRecycles pins the pool contract: a Put Session comes
// back from the next same-config Get, different configs do not mix,
// and the per-config cap drops overflow instead of hoarding it.
func TestSessionPoolRecycles(t *testing.T) {
	p := NewSessionPool(1)
	four, eight := config.FourLink4GB(), config.EightLink8GB()

	a, err := p.Get(four)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Mutex(2, 0x40); err != nil {
		t.Fatal(err)
	}
	p.Put(a)
	if got := p.Idle(); got != 1 {
		t.Fatalf("Idle = %d after one Put, want 1", got)
	}

	b, err := p.Get(eight)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("Get(8Link) returned the pooled 4Link session")
	}
	c, err := p.Get(four)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("Get(4Link) did not recycle the pooled session")
	}

	// Cap = 1: the second same-config Put must drop, not hoard.
	d, err := p.Get(four)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(b)
	p.Put(c)
	p.Put(d)
	if got := p.Idle(); got != 2 { // one 4Link + one 8Link
		t.Errorf("Idle = %d with per-config cap 1, want 2", got)
	}
	p.Drain()
	if got := p.Idle(); got != 0 {
		t.Errorf("Idle = %d after Drain, want 0", got)
	}
}

// TestSessionPoolRejectsOptioned pins that Sessions built with options
// never enter a pool: options are closures a later Get could not be
// matched against, so Put must drop them.
func TestSessionPoolRejectsOptioned(t *testing.T) {
	p := NewSessionPool(4)
	ss, err := NewSession(config.TwoGBDev(), sim.WithEventClock(false))
	if err != nil {
		t.Fatal(err)
	}
	p.Put(ss)
	if got := p.Idle(); got != 0 {
		t.Errorf("Idle = %d after Put of an optioned session, want 0", got)
	}
}

// TestPooledSweepBitIdentity pins that drawing sweep sessions from the
// warm shared pool changes no result bit: the same sweep run twice —
// the second run reusing the first run's pooled simulators — produces
// identical MutexRun rows.
func TestPooledSweepBitIdentity(t *testing.T) {
	cfg := config.TwoGBDev()
	first, err := MutexSweep(cfg, 2, 8, 0x40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MutexSweep(cfg, 2, 8, 0x40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("pooled rerun diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestMutexSweepPooledAllocFloor pins the sweep's post-warmup
// allocation floor: with per-worker sessions drawn from the shared
// pool, a whole serial sweep costs a handful of allocations (the
// result slice and the runner's closures) — down from 80 allocs and
// ~108 KB per sweep when each sweep rebuilt its session (97% of which
// was device.New). The pin is deliberately loose (16) to absorb
// runtime noise while still catching a construction-path regression,
// which would reappear as 80+.
func TestMutexSweepPooledAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	cfg := config.FourLink4GB()
	sweep := func() {
		if _, err := MutexSweep(cfg, 2, 8, 0x40, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm the shared pool
	if got := testing.AllocsPerRun(5, sweep); got > 16 {
		t.Errorf("pooled serial sweep allocates %.0f/op, want <= 16", got)
	}
}

// TestMutexSweepParallelMatchesSerial runs simulators on several
// goroutines at once, the only parallelism left once a simulator is a
// single-goroutine object. sweepWorkers collapses to one worker on a
// single-proc runtime, so GOMAXPROCS is raised for the test. The four
// workers draw Sessions from the shared sweep pool, run lock-free
// stores, and recycle responses through their own devices' free lists;
// under -race this catches any state those simulators share without
// synchronization. The parallel sweep must equal the serial one on
// both paper presets.
//
// A sweep with a span recorder builds a fresh simulator per point, all
// feeding the one recorder: asked for four workers it must still record
// exactly the events of a one-worker sweep, in the same order.
func TestMutexSweepParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for i, cfg := range []config.Config{config.FourLink4GB(), config.EightLink8GB()} {
		par, err := MutexSweep(cfg, 2, 17, 0x40, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := MutexSweep(cfg, 2, 17, 0x40, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, ser) {
			t.Errorf("preset %d: parallel sweep diverges from serial:\nparallel: %+v\nserial:   %+v", i, par, ser)
		}
	}

	traced := func(workers int) (MutexSweepResult, []span.Event) {
		tr := span.New(span.Config{Capacity: 1 << 16})
		res, err := MutexSweep(config.FourLink4GB(), 2, 9, 0x40, workers, nil, sim.WithSpans(tr))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("span ring dropped %d events", tr.Dropped())
		}
		return res, tr.Events()
	}
	parRes, parEvents := traced(4)
	serRes, serEvents := traced(1)
	if !reflect.DeepEqual(parRes, serRes) {
		t.Errorf("span-traced sweep: 4 workers diverge from 1:\nparallel: %+v\nserial:   %+v", parRes, serRes)
	}
	if len(serEvents) == 0 || !reflect.DeepEqual(parEvents, serEvents) {
		t.Errorf("span-traced sweep: 4 workers recorded %d events, 1 worker %d; the streams differ",
			len(parEvents), len(serEvents))
	}
}
