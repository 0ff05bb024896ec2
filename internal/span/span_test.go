package span

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/hmccmd"
	"repro/internal/metrics"
)

// record plays one canonical local round trip for tag through the
// tracer: send at c0, link ingress +1, vault enqueue +1, execute +2
// (with one bank-wait marker), response drain +1, egress +1, host recv
// +1 — 7 cycles end to end.
func record(t *Tracer, tag uint16, c0 uint64) {
	t.Record(KindHostSend, 0, 0, -1, tag, uint8(hmccmd.ClassRead), c0, 0)
	t.Record(KindLinkIngress, 0, 0, -1, tag, 0, c0+1, 0)
	t.Record(KindVaultEnq, 0, -1, 3, tag, 0, c0+2, 0)
	t.Record(KindBankWait, 0, -1, 3, tag, 0, c0+3, 0)
	t.Record(KindExecute, 0, -1, 3, tag, 0, c0+4, 0)
	t.Record(KindRspXbar, 0, 0, 3, tag, 0, c0+5, 0)
	t.Record(KindRspEgress, 0, 0, -1, tag, 0, c0+6, 0)
	t.Record(KindHostRecv, 0, 0, -1, tag, 0, c0+7, 0)
}

func TestLifecycleAndAttributionSum(t *testing.T) {
	tr := New(Config{})
	record(tr, 5, 100)
	if tr.Tracked(5) {
		t.Fatal("span should close at host recv")
	}
	if got := tr.Completed(); got != 1 {
		t.Fatalf("Completed = %d, want 1", got)
	}

	a := tr.Attribution()
	if a.Spans != 1 || a.InFlight != 0 {
		t.Fatalf("Spans=%d InFlight=%d, want 1/0", a.Spans, a.InFlight)
	}
	// The acceptance invariant: stage cycles telescope to the exact
	// end-to-end latency.
	if a.TotalCycles != 7 {
		t.Fatalf("TotalCycles = %d, want 7", a.TotalCycles)
	}
	var sum uint64
	for _, s := range a.Stages {
		sum += s.Cycles
	}
	if sum != a.TotalCycles {
		t.Fatalf("stage sum %d != end-to-end %d", sum, a.TotalCycles)
	}
	want := map[StageID]uint64{
		StageLink: 1, StageXbar: 1, StageVault: 2,
		StageRspVault: 1, StageRspLink: 1, StageHostDrain: 1,
	}
	for _, s := range a.Stages {
		if s.Cycles != want[s.Stage] {
			t.Errorf("stage %v = %d cycles, want %d", s.Stage, s.Cycles, want[s.Stage])
		}
		delete(want, s.Stage)
	}
	for st, c := range want {
		t.Errorf("stage %v (want %d cycles) missing from table", st, c)
	}
	if len(a.Classes) != 1 || a.Classes[0].Class != hmccmd.ClassRead || a.Classes[0].Count != 1 {
		t.Fatalf("classes = %+v, want one READ entry", a.Classes)
	}
	if got := a.Classes[0].Summary.Max(); got != 7 {
		t.Fatalf("class max latency = %d, want 7", got)
	}
	if a.Report() == "" {
		t.Fatal("empty report")
	}
}

func TestTagModuloSampling(t *testing.T) {
	tr := New(Config{SampleMod: 4})
	for tag := uint16(0); tag < 8; tag++ {
		tr.Record(KindHostSend, 0, 0, -1, tag, 0, 10, 0)
		if got, want := tr.Tracked(tag), tag%4 == 0; got != want {
			t.Fatalf("tag %d tracked = %v, want %v", tag, got, want)
		}
	}
	// Only tags 0 and 4 recorded an event.
	if n := len(tr.Events()); n != 2 {
		t.Fatalf("recorded %d events, want 2", n)
	}
}

func TestTraceNextArming(t *testing.T) {
	tr := New(Config{SampleMod: 1 << 20}) // modulo tracks only tag 0
	tr.TraceNext(2)
	for tag := uint16(1); tag <= 3; tag++ {
		tr.Record(KindHostSend, 0, 0, -1, tag, 0, 1, 0)
		tr.Record(KindHostRecv, 0, 0, -1, tag, 0, 2, 0)
	}
	// Tags 1 and 2 consumed the armed budget; tag 3 fell back to the
	// modulo and was not tracked.
	if got := tr.Completed(); got != 2 {
		t.Fatalf("Completed = %d, want 2 armed spans", got)
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	tr := New(Config{Capacity: 8})
	for i := 0; i < 5; i++ {
		record(tr, uint16(i), uint64(100*i)) // 8 events each
	}
	if got := tr.Dropped(); got != 5*8-8 {
		t.Fatalf("Dropped = %d, want %d", got, 5*8-8)
	}
	ev := tr.Events()
	if len(ev) != 8 {
		t.Fatalf("Events len = %d, want capacity 8", len(ev))
	}
	// Oldest-first: strictly non-decreasing cycles.
	for i := 1; i < len(ev); i++ {
		if ev[i].Cycle < ev[i-1].Cycle {
			t.Fatalf("events out of order at %d: %d < %d", i, ev[i].Cycle, ev[i-1].Cycle)
		}
	}
	// The surviving window is the tail of span 4 (and the end of span
	// 3): span 4's opening HostSend survived, so exactly one span closes.
	a := Attribute(ev)
	if a.Spans != 1 {
		t.Fatalf("attributed %d spans from wrapped ring, want 1", a.Spans)
	}
}

func TestAnomalyThreshold(t *testing.T) {
	tr := New(Config{ThresholdCycles: 5})
	record(tr, 1, 0) // 7 cycles > 5
	if got := tr.Anomalies(); got != 1 {
		t.Fatalf("Anomalies = %d, want 1", got)
	}
	ev := tr.Events()
	last := ev[len(ev)-1]
	if last.Kind != KindAnomaly || last.Arg != 7 {
		t.Fatalf("last event = %+v, want KindAnomaly Arg=7", last)
	}
	tr2 := New(Config{ThresholdCycles: 7})
	record(tr2, 1, 0) // exactly 7 is not over the threshold
	if got := tr2.Anomalies(); got != 0 {
		t.Fatalf("Anomalies = %d, want 0 at threshold", got)
	}
}

func TestPostedExecuteClosesSpan(t *testing.T) {
	tr := New(Config{})
	tr.Record(KindHostSend, 0, 0, -1, 9, uint8(hmccmd.ClassPostedWrite), 10, 0)
	tr.Record(KindLinkIngress, 0, 0, -1, 9, 0, 11, 0)
	tr.Record(KindVaultEnq, 0, -1, 1, 9, 0, 12, 0)
	tr.Record(KindExecute, 0, -1, 1, 9, 0, 13, ArgPosted)
	if tr.Tracked(9) {
		t.Fatal("posted execute must close the span")
	}
	a := tr.Attribution()
	if a.Spans != 1 || a.TotalCycles != 3 {
		t.Fatalf("Spans=%d Total=%d, want 1/3", a.Spans, a.TotalCycles)
	}
}

func TestForwardedSpanLifecycle(t *testing.T) {
	tr := New(Config{})
	// Remote request: topo forward at 0 (2 hops), remote send at 2,
	// pipeline 3 cycles, remote recv at 5, return arrival at 7.
	tr.Record(KindTopoForward, -1, 0, -1, 7, uint8(hmccmd.ClassRead), 0, 2)
	tr.Record(KindHostSend, 1, 0, -1, 7, uint8(hmccmd.ClassRead), 2, 0)
	tr.Record(KindLinkIngress, 1, 0, -1, 7, 0, 3, 0)
	tr.Record(KindVaultEnq, 1, -1, 0, 7, 0, 4, 0)
	tr.Record(KindExecute, 1, -1, 0, 7, 0, 5, 0)
	tr.Record(KindHostRecv, 1, 0, -1, 7, 0, 5, 0)
	if !tr.Tracked(7) {
		t.Fatal("remote HostRecv must not close a forwarded span")
	}
	tr.Record(KindTopoArrive, -1, 0, -1, 7, 0, 7, 0)
	if tr.Tracked(7) {
		t.Fatal("topo arrival must close the forwarded span")
	}
	a := tr.Attribution()
	if a.Spans != 1 || a.TotalCycles != 7 {
		t.Fatalf("Spans=%d Total=%d, want 1/7", a.Spans, a.TotalCycles)
	}
	var hop, ret uint64
	for _, s := range a.Stages {
		switch s.Stage {
		case StageTopoHop:
			hop = s.Cycles
		case StageTopoReturn:
			ret = s.Cycles
		}
	}
	if hop != 2 || ret != 2 {
		t.Fatalf("topo_hop=%d topo_return=%d, want 2/2", hop, ret)
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	tr := New(Config{Capacity: 1 << 12})
	tr.Record(KindHostSend, 0, 0, -1, 1, 0, 0, 0)
	cycle := uint64(1)
	// Appends into the preallocated ring must never allocate, including
	// across wrap-around.
	allocs := testing.AllocsPerRun(5000, func() {
		tr.Record(KindLinkIngress, 0, 0, -1, 1, 0, cycle, 0)
		tr.Record(KindBankWait, 0, -1, 2, 1, 0, cycle, 0)
		cycle++
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestStageMetricsFeed(t *testing.T) {
	tr := New(Config{})
	reg := metrics.NewRegistry()
	tr.RegisterMetrics(reg)
	record(tr, 2, 50)
	m := reg.Lookup(NameStageCycles, metrics.L("stage", "total"))
	if m == nil {
		t.Fatal("total stage histogram not registered")
	}
	snap, ok := m.Histogram()
	if !ok || snap.Count != 1 || snap.Max != 7 {
		t.Fatalf("total histogram ok=%v count=%d max=%d, want 1/7", ok, snap.Count, snap.Max)
	}
	m = reg.Lookup(NameStageCycles, metrics.L("stage", "vault"))
	if m == nil {
		t.Fatal("vault stage histogram not registered")
	}
	if snap, ok := m.Histogram(); !ok || snap.Count != 1 || snap.Max != 2 {
		t.Fatalf("vault histogram ok=%v count=%d max=%d, want 1/2", ok, snap.Count, snap.Max)
	}
}

func TestPerfettoExport(t *testing.T) {
	tr := New(Config{ThresholdCycles: 5})
	record(tr, 3, 10)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var umbrella, stages, instants int
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "X" && e.Pid == pidHost:
			umbrella++
			if e.Ts != 10 || e.Dur != 7 {
				t.Fatalf("umbrella ts=%d dur=%d, want 10/7", e.Ts, e.Dur)
			}
		case e.Ph == "X":
			stages++
		case e.Ph == "i":
			instants++
		}
	}
	if umbrella != 1 {
		t.Fatalf("umbrella spans = %d, want 1", umbrella)
	}
	if stages != 6 {
		t.Fatalf("stage spans = %d, want 6", stages)
	}
	// One bank-wait marker plus one anomaly (7 > 5).
	if instants != 2 {
		t.Fatalf("instants = %d, want 2", instants)
	}
}

func TestEventsEmptyAndKindNames(t *testing.T) {
	tr := New(Config{})
	if ev := tr.Events(); len(ev) != 0 {
		t.Fatalf("fresh tracer has %d events", len(ev))
	}
	a := Attribute(nil)
	if a.Spans != 0 || len(a.Stages) != 0 {
		t.Fatalf("empty attribution = %+v", a)
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "kind?" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	for s := StageID(0); s < numStages; s++ {
		if s.String() == "stage?" {
			t.Fatalf("stage %d has no name", s)
		}
	}
}
