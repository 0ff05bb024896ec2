package hmcsim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/queue"
	"repro/internal/span"
)

// observerGolden holds everything the device's observers wrote over the
// runs of TestObserverGolden. When an intended change moves it, the
// failing test writes its own rendering to a temporary file and prints
// the cp command that installs it here.
const observerGolden = "testdata/observers.golden"

// TestObserverGolden pins, byte for byte, what every observer of the
// device pipeline produces: the discrete text trace at every level, the
// span recorder's events and attribution report, the metrics registry
// (both device histograms and the per-stage span histograms) in the
// Prometheus format, the power model's totals, the device counters and
// utilization reports, and every queue's statistics.
//
// The runs together drive every observation point: reads, writes and
// atomics; out-of-range and poisoned requests; CMC ops that are active,
// inactive, faulting and posted; a flood that stalls Send, blocks the
// crossbar and, with the host no longer receiving, fills a vault's
// response queue; an open-page banked configuration; a two-cube chain
// with periodic CRC faults and the same chain under a random plan of
// every fault kind; and a contended mutex.
func TestObserverGolden(t *testing.T) {
	var out bytes.Buffer
	for _, run := range observerRuns() {
		renderObserverRun(t, &out, run)
	}
	got := out.String()
	assertObserverCoverage(t, got)
	assertGolden(t, observerGolden, got)
}

// chainTraceGolden holds the text trace of TestChainTraceGolden's run.
const chainTraceGolden = "testdata/chain_trace.golden"

// TestChainTraceGolden pins the order of a 4-cube chain's trace records
// within a cycle: the cubes' pipeline records in cube order, then the
// LATENCY records of the remote responses the topology collects for
// their return hop, again in cube order. TestObserverGolden's two-cube
// chains cannot tell that order from collecting each cube as soon as it
// steps.
func TestChainTraceGolden(t *testing.T) {
	var text bytes.Buffer
	tracer := NewTextTracer(&text, TraceAll)
	s, err := New(FourLink4GB(), WithDevices(4, TopoChain), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		r, err := Build(hmccmd.RD64, i%4, uint64(i)*64, uint16(i), i%4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(i%4, r); err != nil {
			t.Fatal(err)
		}
	}
	if got := pump(s, 60, true); got != 12 {
		t.Fatalf("received %d of 12 responses", got)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, chainTraceGolden, text.String())
}

// assertGolden fails unless got equals the golden file's content byte
// for byte. It writes a differing rendering to a temporary file and
// prints the cp command that installs it (the tests have no update
// flag).
func assertGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err == nil && string(want) == got {
		return
	}
	f, ferr := os.CreateTemp("", "golden-*")
	if ferr == nil {
		_, ferr = f.WriteString(got)
		f.Close()
	}
	if ferr != nil {
		t.Fatalf("writing the new rendering: %v", ferr)
	}
	if err != nil {
		t.Fatalf("%v; if this is the first run, install the rendering with\n\tcp %s %s", err, f.Name(), golden)
	}
	t.Fatalf("output differs from %s at %s\nthe new rendering is in %s; if the change is intended, install it with\n\tcp %s %s",
		golden, firstDifference(string(want), got), f.Name(), f.Name(), golden)
}

// observerRun is one simulation of the golden: its configuration and
// extra options, its span sampling, and the host loop that drives it.
type observerRun struct {
	name  string
	cfg   Config
	opts  []Option
	spans SpanConfig
	drive func(t *testing.T, ss *Session) string
}

func observerRuns() []observerRun {
	shallow := config.TwoGBDev()
	shallow.LinkDepth, shallow.XbarDepth, shallow.QueueDepth = 4, 2, 2

	banked := config.TwoGBDev()
	banked.BankLatencyCycles, banked.RowMissPenaltyCycles = 2, 3

	crc := config.TwoGBDev()
	crc.LinkFaultPeriod = 3

	return []observerRun{
		{name: "mixed", cfg: config.TwoGBDev(), spans: SpanConfig{ThresholdCycles: 4}, drive: driveMixed},
		{name: "flood", cfg: shallow, drive: driveFlood},
		{name: "banked", cfg: banked, drive: driveBanked},
		{name: "chain-crc", cfg: crc, spans: SpanConfig{ThresholdCycles: 12}, opts: []Option{WithDevices(2, TopoChain)}, drive: driveChain},
		{name: "chain-faults", cfg: config.TwoGBDev(), opts: []Option{WithDevices(2, TopoChain),
			WithFaults(FaultPlan{Rate: 0.05, Seed: 6, Kinds: FaultAll})}, drive: driveChain},
		{name: "mutex", cfg: FourLink4GB(), spans: SpanConfig{SampleMod: 3, ThresholdCycles: 40}, drive: driveMutex},
	}
}

// renderObserverRun builds one simulator with every observer attached,
// drives it and appends what each observer recorded.
func renderObserverRun(t *testing.T, out *bytes.Buffer, run observerRun) {
	t.Helper()
	var text bytes.Buffer
	tracer := NewTextTracer(&text, TraceAll)
	spans := NewSpanTracer(run.spans)
	reg := NewMetricsRegistry()
	pm := NewPowerModel(DefaultPowerParams())
	opts := append([]Option{WithTracer(tracer), WithSpans(spans), WithMetrics(reg), WithPowerModel(pm)}, run.opts...)
	ss, err := NewSession(run.cfg, opts...)
	if err != nil {
		t.Fatalf("%s: %v", run.name, err)
	}
	summary := run.drive(t, ss)
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if spans.Dropped() != 0 {
		t.Fatalf("%s: span ring dropped %d events", run.name, spans.Dropped())
	}

	fmt.Fprintf(out, "=== %s\n--- host\n%s\n--- trace\n%s--- spans\n", run.name, summary, text.String())
	for _, e := range spans.Events() {
		fmt.Fprintf(out, "%d %s t=%d c=%d d=%d l=%d v=%d a=%#x\n",
			e.Cycle, e.Kind, e.Tag, e.Class, e.Dev, e.Link, e.Vault, e.Arg)
	}
	fmt.Fprintf(out, "--- attribution\ncompleted=%d anomalies=%d\n%s--- metrics\n",
		spans.Completed(), spans.Anomalies(), spans.Attribution().Report())
	if err := WritePrometheus(out, reg); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "--- power\n%s\n--- stats\n", pm)
	for _, d := range ss.Sim().Devices() {
		fmt.Fprintf(out, "dev %d: %+v\n", d.ID, d.Stats())
		renderQueueStats(t, out, d)
	}
}

// renderQueueStats appends a device's utilization report and its queue
// statistics: every link and crossbar queue's counters and occupancy at
// full precision, and the vault queues summed over the device.
func renderQueueStats(t *testing.T, out *bytes.Buffer, d *Device) {
	t.Helper()
	out.WriteString(d.BuildReport().String())
	line := func(name string, i int, st queue.Stats) {
		fmt.Fprintf(out, "%s %d %+v avg=%v\n", name, i, st, st.AvgOccupancy())
	}
	for i := 0; i < d.Cfg.Links; i++ {
		l, err := d.Link(i)
		if err != nil {
			t.Fatal(err)
		}
		line("link rqst", i, l.RqstStats())
		line("link rsp", i, l.RspStats())
		line("xbar rqst", i, d.Xbar().RqstStats(i))
		line("xbar rsp", i, d.Xbar().RspStats(i))
	}
	for _, dir := range []string{"rqst", "rsp"} {
		var pushes, pops, stalls, samples uint64
		var maxOcc int
		var avg float64
		for i := 0; i < d.Cfg.Vaults; i++ {
			v, err := d.Vault(i)
			if err != nil {
				t.Fatal(err)
			}
			st := v.RqstStats()
			if dir == "rsp" {
				st = v.RspStats()
			}
			pushes, pops, stalls = pushes+st.Pushes, pops+st.Pops, stalls+st.Stalls
			maxOcc, samples = max(maxOcc, st.MaxOccupancy), max(samples, st.Samples())
			avg += st.AvgOccupancy()
		}
		fmt.Fprintf(out, "vaults %s pushes=%d pops=%d stalls=%d max=%d samples=%d avg-sum=%v\n",
			dir, pushes, pops, stalls, maxOcc, samples, avg)
	}
}

// pump clocks s for n cycles, receiving every response (when recv) and
// counting them.
func pump(s *Simulator, n int, recv bool) int {
	got := 0
	for c := 0; c < n; c++ {
		s.Clock()
		for l := 0; recv && l < s.Links(); l++ {
			for {
				rsp, ok := s.Recv(l)
				if !ok {
					break
				}
				got++
				ReleaseRsp(rsp)
			}
		}
	}
	return got
}

// goldenPostedOp is a posted CMC operation: it stores its operand and
// answers nothing.
type goldenPostedOp struct{}

func (goldenPostedOp) Register() CMCDescriptor {
	return CMCDescriptor{OpName: "golden_post", Rqst: hmccmd.CMC4, Cmd: uint32(hmccmd.CMC4.Code()),
		RqstLen: 2, RspLen: 0, RspCmd: hmccmd.RspNone}
}
func (goldenPostedOp) Str() string { return "golden_post" }
func (goldenPostedOp) Execute(ctx *CMCExecContext) error {
	return ctx.Mem.WriteUint64(ctx.Addr, ctx.RqstPayload[0])
}

// goldenFaultOp is a CMC operation whose execute function always fails.
type goldenFaultOp struct{}

func (goldenFaultOp) Register() CMCDescriptor {
	return CMCDescriptor{OpName: "golden_fault", Rqst: hmccmd.CMC5, Cmd: uint32(hmccmd.CMC5.Code()),
		RqstLen: 1, RspLen: 2, RspCmd: hmccmd.RdRS}
}
func (goldenFaultOp) Str() string { return "golden_fault" }
func (goldenFaultOp) Execute(*CMCExecContext) error {
	return errors.New("golden fault")
}

// driveMixed sends one of each request shape on alternating links and
// receives every answer: RSP records with ERRSTAT 0, 1, 2, 3 and 6,
// and CMC records only for the ops that ran.
func driveMixed(t *testing.T, ss *Session) string {
	s := ss.Sim()
	for _, name := range []string{"hmc_lock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []CMCOperation{goldenPostedOp{}, goldenFaultOp{}} {
		if err := s.LoadCMCOp(op); err != nil {
			t.Fatal(err)
		}
	}
	bad := s.Config().CapacityBytes() + 0x40
	data := []uint64{0x1111, 0x2222, 0x3333, 0x4444}
	poisoned := func(r *Rqst, err error) (*Rqst, error) {
		if err == nil {
			r.Pb = true
		}
		return r, err
	}
	builds := []func(tag uint16, link int) (*Rqst, error){
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.WR32, 0, 0x1000, tag, link, data) },
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.RD32, 0, 0x1000, tag, link, nil) },
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.PWR16, 0, 0x2000, tag, link, data[:2]) },
		func(tag uint16, link int) (*Rqst, error) {
			return Build(hmccmd.ADD16, 0, 0x1000, tag, link, []uint64{5, 6})
		},
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.INC8, 0, 0x3000, tag, link, nil) },
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.PINC8, 0, 0x3000, tag, link, nil) },
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.RD16, 0, bad, tag, link, nil) },
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.PWR16, 0, bad, tag, link, data[:2]) },
		func(tag uint16, link int) (*Rqst, error) {
			return Build(hmccmd.CMC125, 0, 0x4000, tag, link, []uint64{uint64(tag), 0})
		},
		func(tag uint16, link int) (*Rqst, error) {
			return Build(hmccmd.CMC127, 0, 0x4000, tag, link, []uint64{uint64(tag) - 1, 0})
		},
		func(tag uint16, link int) (*Rqst, error) {
			return Build(hmccmd.CMC4, 0, 0x5000, tag, link, []uint64{9, 0})
		},
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.CMC5, 0, 0x5000, tag, link, nil) },
		func(tag uint16, link int) (*Rqst, error) { return Build(hmccmd.CMC6, 0, 0x5000, tag, link, nil) },
		func(tag uint16, link int) (*Rqst, error) {
			return Build(hmccmd.CMC125, 0, bad, tag, link, []uint64{1, 0})
		},
		func(tag uint16, link int) (*Rqst, error) {
			return poisoned(Build(hmccmd.RD16, 0, 0x1000, tag, link, nil))
		},
		func(tag uint16, link int) (*Rqst, error) {
			return poisoned(Build(hmccmd.CMC125, 0, 0x6000, tag, link, []uint64{1, 0}))
		},
		func(tag uint16, link int) (*Rqst, error) {
			return poisoned(Build(hmccmd.CMC4, 0, 0x6000, tag, link, []uint64{1, 0}))
		},
	}
	got := 0
	for i, build := range builds {
		tag := uint16(9 + i)
		r, err := build(tag, i%s.Links())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := s.Send(i%s.Links(), r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got += pump(s, 1+i%3, true)
	}
	got += pump(s, 12, true)
	return fmt.Sprintf("sent=%d received=%d", len(builds), got)
}

// driveFlood fills one vault through shallow queues: Send stalls, the
// crossbar head blocks on the full vault queue, and while the host is
// not receiving the vault's response queue fills behind the host link.
func driveFlood(t *testing.T, ss *Session) string {
	s := ss.Sim()
	sent, stalls := 0, 0
	for c := 0; c < 10; c++ {
		for k := 0; k < 3; k++ {
			// Tags repeat while their requests are in flight, so a
			// stalled Send names a tracked span.
			r, err := Build(hmccmd.RD16, 0, 0x40, uint16(sent%4), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(0, r); err != nil {
				stalls++
				continue
			}
			sent++
		}
		pump(s, 1, false)
	}
	got := pump(s, 40, true)
	return fmt.Sprintf("sent=%d stalls=%d received=%d", sent, stalls, got)
}

// driveBanked streams reads and writes over two rows of one bank, so
// requests wait on the busy bank and the open-page model scores hits
// and misses.
func driveBanked(t *testing.T, ss *Session) string {
	s := ss.Sim()
	rowStride := uint64(1) << 20
	got := 0
	for i := 0; i < 12; i++ {
		adrs := uint64(i%2)*rowStride + uint64(i/2%2)*0x40
		var r *Rqst
		var err error
		if i%3 == 0 {
			r, err = Build(hmccmd.WR16, 0, adrs, uint16(i), 0, []uint64{uint64(i), 0})
		} else {
			r, err = Build(hmccmd.RD16, 0, adrs, uint16(i), 0, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			got += pump(s, 1, true)
		}
	}
	got += pump(s, 60, true)
	return fmt.Sprintf("sent=12 received=%d", got)
}

// driveChain sends bursts of reads and writes to both cubes of a
// two-cube chain, the remote ones forwarded across the hop. Each burst
// goes out on one link in one cycle, more packets than the link's retry
// buffer holds, so under a fault plan transmissions wait for slots.
func driveChain(t *testing.T, ss *Session) string {
	s := ss.Sim()
	sent, stalls, got := 0, 0, 0
	for round := 0; round < 4; round++ {
		link, cub := round%s.Links(), round%2
		for k := 0; k < 10; k++ {
			tag := uint16(round*16 + k)
			adrs := uint64(0x100 * (k + 1))
			var r *Rqst
			var err error
			if k%3 == 2 {
				r, err = Build(hmccmd.WR16, cub, adrs, tag, link, []uint64{uint64(tag), 1})
			} else {
				r, err = Build(hmccmd.RD16, cub, adrs, tag, link, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(link, r); err != nil {
				stalls++
				continue
			}
			sent++
		}
		got += pump(s, 3, true)
	}
	got += pump(s, 400, true)
	return fmt.Sprintf("sent=%d stalls=%d received=%d", sent, stalls, got)
}

// driveMutex runs the paper's Algorithm 1 with contended threads.
func driveMutex(t *testing.T, ss *Session) string {
	run, err := ss.Mutex(8, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", run)
}

// assertObserverCoverage fails when the rendering no longer exercises
// every trace level, stall detail, response status and span kind, so an
// edit to the runs cannot quietly shrink what the golden pins.
func assertObserverCoverage(t *testing.T, got string) {
	t.Helper()
	var want []string
	for _, level := range []string{"BANK", "LATENCY", "STALL", "RQST", "RSP", "CMC"} {
		want = append(want, " : "+level+" : ")
	}
	want = append(want,
		"send stall: link request queue full",
		"xbar head blocked: vault request queue full",
		"link CRC fault: retry sequence",
		"injected bit flip: retry sequence",
		"injected packet drop: awaiting retransmit timeout",
		"injected link-down window",
		"cmd=hmc_lock", "cmd=hmc_unlock", "cmd=golden_post")
	for _, errstat := range []int{0, 1, 2, 3, 6} {
		want = append(want, fmt.Sprintf(" : RSP : .* value=%d\n", errstat))
	}
	for k := span.Kind(0); k.String() != "kind?"; k++ {
		want = append(want, fmt.Sprintf(" %s t=", k))
	}
	for _, w := range want {
		if !containsLine(got, w) {
			t.Errorf("observer golden no longer covers %q", w)
		}
	}
	if strings.Contains(got, "cmd=golden_fault") {
		t.Error("a faulting CMC op was traced as executed")
	}
}

// containsLine reports whether some line of s contains pattern; a
// pattern of the form "prefix .* suffix\n" matches a line holding
// prefix and ending in suffix.
func containsLine(s, pattern string) bool {
	prefix, suffix, wild := strings.Cut(pattern, ".*")
	if !wild {
		return strings.Contains(s, pattern)
	}
	suffix = strings.TrimSuffix(suffix, "\n")
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, prefix) && strings.HasSuffix(line, suffix) {
			return true
		}
	}
	return false
}

// firstDifference names the first line where two renderings differ.
func firstDifference(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n\twant %q\n\t got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line %d (lengths %d and %d lines)", min(len(w), len(g))+1, len(w), len(g))
}
