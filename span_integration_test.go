package hmcsim

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/span"
)

// The span tracer is observational by construction: attaching it must
// not move a single packet, and leaving it off must leave the clock
// loop allocation-free. These tests pin both directions of that
// contract at the simulator level, plus the exporter invariants the
// acceptance criteria name: Perfetto nesting for a 2-cube faulted
// round trip and stage cycles telescoping to end-to-end latency.

// TestSpansStatsIdentity runs the traced mutex workload with and
// without a span tracer attached and compares every observable —
// run results, device stats, queue stats, and the JSONL trace byte
// for byte. Spans on or off, the simulation is the same simulation.
func TestSpansStatsIdentity(t *testing.T) {
	cfg := FourLink4GB()
	base := runMutexMode(t, cfg, 16, false)
	spanned := runMutexMode(t, cfg, 16, false, WithSpans(NewSpanTracer(SpanConfig{})))
	compareCaptures(t, "spans-attached", base, spanned)
}

// TestSpansEventClockConsistency pins that the event-driven scheduler's
// fast-forward stamps spans on the same cycles as the per-cycle
// reference engine: identical event streams, identical attribution.
func TestSpansEventClockConsistency(t *testing.T) {
	record := func(eventClock bool) []span.Event {
		tr := NewSpanTracer(SpanConfig{})
		opts := []Option{WithSpans(tr)}
		if !eventClock {
			opts = append(opts, WithEventClock(false))
		}
		if _, err := RunMutex(FourLink4GB(), 12, 0x40, opts...); err != nil {
			t.Fatal(err)
		}
		return tr.Events()
	}
	ev := record(true)
	ref := record(false)
	if len(ev) == 0 {
		t.Fatal("no span events recorded")
	}
	if !reflect.DeepEqual(ev, ref) {
		t.Fatalf("event-clock span stream diverges from reference: %d vs %d events",
			len(ev), len(ref))
	}
}

// TestClockLoopSpansOffZeroAlloc pins the disabled path: a simulator
// built without WithSpans must keep the steady-state round trip at
// zero allocations — the nil-tracer branches cost a compare, never an
// allocation.
func TestClockLoopSpansOffZeroAlloc(t *testing.T) {
	skipIfRace(t)
	s, err := New(FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(hmccmd.RD64, 0, 0x1000, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	trip := func() {
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 16; c++ {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				ReleaseRsp(rsp)
				return
			}
		}
		t.Fatal("no response within 16 cycles")
	}
	trip() // warm the pools before counting
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Errorf("spans-off round trip: %.1f allocs/op, want 0", allocs)
	}
}

// TestClockLoopObserversZeroAlloc pins the enabled path: with every
// observer attached — the text trace at every level, spans on every tag,
// metrics and the power model — a steady-state round trip of a read, an
// atomic and a CMC op still allocates nothing. Each pipeline event
// reaches its sinks through an interface call, so an Event or a trace
// record that escaped to the heap would show up here.
func TestClockLoopObserversZeroAlloc(t *testing.T) {
	skipIfRace(t)
	tracer := NewTextTracer(io.Discard, TraceAll)
	s, err := New(FourLink4GB(),
		WithTracer(tracer),
		WithSpans(NewSpanTracer(SpanConfig{})),
		WithMetrics(NewMetricsRegistry()),
		WithPowerModel(NewPowerModel(DefaultPowerParams())))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMC("hmc_lock"); err != nil {
		t.Fatal(err)
	}
	var rqsts []*Rqst
	for _, build := range []func() (*Rqst, error){
		func() (*Rqst, error) { return Build(hmccmd.RD64, 0, 0x1000, 1, 0, nil) },
		func() (*Rqst, error) { return Build(hmccmd.ADD16, 0, 0x2000, 2, 1, []uint64{1, 2}) },
		func() (*Rqst, error) { return Build(hmccmd.CMC125, 0, 0x40, 3, 2, []uint64{7, 0}) },
	} {
		r, err := build()
		if err != nil {
			t.Fatal(err)
		}
		rqsts = append(rqsts, r)
	}
	trip := func() {
		for i, r := range rqsts {
			if err := s.Send(i, r); err != nil {
				t.Fatal(err)
			}
		}
		got := 0
		for c := 0; c < 16 && got < len(rqsts); c++ {
			s.Clock()
			for l := range rqsts {
				if rsp, ok := s.Recv(l); ok {
					ReleaseRsp(rsp)
					got++
				}
			}
		}
		if got != len(rqsts) {
			t.Fatalf("%d of %d responses within 16 cycles", got, len(rqsts))
		}
	}
	trip() // warm the pools before counting
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Errorf("observed round trip: %.1f allocs/op, want 0", allocs)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanAttributionSumAcrossRun pins the acceptance invariant at the
// workload level: over a full contended mutex run, per-stage cycles
// telescope to exactly the summed end-to-end latencies.
func TestSpanAttributionSumAcrossRun(t *testing.T) {
	tr := NewSpanTracer(SpanConfig{Capacity: 1 << 18})
	if _, err := RunMutex(FourLink4GB(), 24, 0x40, WithSpans(tr)); err != nil {
		t.Fatal(err)
	}
	a := SpanAttribute(tr.Events())
	if a.Spans == 0 {
		t.Fatal("no spans attributed")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; capacity too small for the invariant check", tr.Dropped())
	}
	if uint64(a.Spans) != tr.Completed() {
		t.Fatalf("attributed %d spans, tracer completed %d", a.Spans, tr.Completed())
	}
	var sum uint64
	for _, s := range a.Stages {
		sum += s.Cycles
	}
	if sum != a.TotalCycles {
		t.Fatalf("stage cycles sum %d != total end-to-end cycles %d", sum, a.TotalCycles)
	}
}

// perfettoDump is the subset of the Chrome trace-event schema the
// golden test reads back.
type perfettoDump struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   uint64         `json:"ts"`
		Dur  uint64         `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestSpanPerfettoGolden2Cube is the acceptance golden: a known 2-cube
// chain with deterministic CRC faults, read round trips against the
// remote cube, exported to Perfetto JSON and parsed back. Every
// umbrella span must contain its stage spans, the stage durations must
// sum to the umbrella duration, the remote traffic must show topology
// hop spans, and the injected fault must appear as an instant marker.
func TestSpanPerfettoGolden2Cube(t *testing.T) {
	cfg := config.TwoGBDev()
	cfg.LinkFaultPeriod = 3 // every 3rd link traversal takes a CRC fault
	tr := NewSpanTracer(SpanConfig{})
	s, err := New(cfg, WithDevices(2, TopoChain), WithSpans(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Four remote reads: enough traversals that the periodic injector
	// fires on traffic the tracer is following.
	for i := 0; i < 4; i++ {
		r, err := Build(hmccmd.RD64, 1, 0x1000, uint16(i+1), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		for c := 0; ; c++ {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				ReleaseRsp(rsp)
				break
			}
			if c > 10000 {
				t.Fatal("remote read never completed")
			}
		}
	}
	if got := tr.Completed(); got != 4 {
		t.Fatalf("completed %d spans, want 4", got)
	}

	var buf bytes.Buffer
	if err := span.WritePerfetto(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var dump perfettoDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v", err)
	}

	type window struct{ ts, end uint64 }
	umbrella := map[int]window{} // host tid (= tag) -> span window
	stageSum := map[int]uint64{}
	var topoSpans, faults int
	for _, e := range dump.TraceEvents {
		switch {
		case e.Ph == "X" && e.Pid == 1: // host umbrella, tid = tag
			if _, dup := umbrella[e.Tid]; dup {
				t.Fatalf("tag %d has two umbrella spans", e.Tid)
			}
			umbrella[e.Tid] = window{e.Ts, e.Ts + e.Dur}
		case e.Ph == "X": // stage span on a component track
			tag := int(e.Args["tag"].(float64))
			stageSum[tag] += e.Dur
			if e.Pid == 2 { // topology process
				topoSpans++
			}
		case e.Ph == "i" && e.Name == "link.fault":
			faults++
		}
	}
	if len(umbrella) != 4 {
		t.Fatalf("umbrella spans for %d tags, want 4", len(umbrella))
	}
	if topoSpans == 0 {
		t.Error("remote round trips produced no topology hop spans")
	}
	if faults == 0 {
		t.Error("periodic CRC injector left no fault instants in the trace")
	}
	// Nesting: every stage span of a tag lies inside its umbrella, and
	// the stage durations telescope to the umbrella duration.
	for _, e := range dump.TraceEvents {
		if e.Ph != "X" || e.Pid == 1 {
			continue
		}
		tag := int(e.Args["tag"].(float64))
		u, ok := umbrella[tag]
		if !ok {
			t.Fatalf("stage span %q has no umbrella for tag %d", e.Name, tag)
		}
		if e.Ts < u.ts || e.Ts+e.Dur > u.end {
			t.Errorf("stage %q [%d,%d) escapes umbrella [%d,%d) of tag %d",
				e.Name, e.Ts, e.Ts+e.Dur, u.ts, u.end, tag)
		}
	}
	for tag, u := range umbrella {
		if got, want := stageSum[tag], u.end-u.ts; got != want {
			t.Errorf("tag %d: stage durations sum to %d, umbrella spans %d", tag, got, want)
		}
	}
}
