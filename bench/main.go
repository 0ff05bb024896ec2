// Command bench is the repository's end-to-end benchmark. It runs one of
// four named workloads for a fixed time, checks every output it
// produces, and prints the end-to-end metrics (untraced) or the
// per-layer ledger (traced) by name and unit, ending with one JSON line:
//
//	bash bench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload hmcd-json --seed 2 --seconds 10 --trace 1
//	bash bench/run.sh compare parent/*.out -- change/*.out
//
// run.sh builds this package and runs it from the repository root. The
// compare form applies the noise-aware comparison rules to two sets of
// saved outputs. README.md defines the workloads, metrics and rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json repeats these
// definitions (plus a regression bound for the end-to-end ones); the
// package test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced pass's metrics, printed for every workload.
// Failed operations are reported by the result line's attempted/failed
// counts rather than as a metric, since a healthy run has none.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"sim_cycles_per_s", "cycle/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"heap_mb", "MB", "lower"},
}

// modules are the groups the traced pass's CPU profile is split into
// (cpu.<module>_pct); see cpuprof.go for the grouping.
var modules = []string{
	"device", "queue", "mem", "cmc", "amo", "addr", "packet", "topo", "sim",
	"workload", "server", "sync", "gc", "syscall", "sched", "bench", "other",
}

// perLayer are the traced pass's metrics, printed for every workload; a
// layer a workload never reaches reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.agent_ns_per_op", "ns", "lower"},
		{"workload.engine_ns_per_op", "ns", "lower"},
		{"sim.send_ns", "ns", "lower"},
		{"sim.send_stall_ratio", "ratio", "lower"},
		{"sim.recv_ns", "ns", "lower"},
		{"sim.recv_empty_ratio", "ratio", "lower"},
		{"sim.reset_us", "us", "lower"},
		{"sim.clock_ns_per_cycle", "ns", "lower"},
		{"sim.cycles_per_clock_call", "cycle", "higher"},
		{"device.walked_cycle_ratio", "ratio", "lower"},
		{"device.rqsts_per_kcycle", "1/kcycle", "higher"},
		{"device.bank_conflicts_per_rqst", "ratio", "lower"},
		{"device.xbar_backpressure_per_rqst", "ratio", "lower"},
		{"device.link_ser_stalls_per_rqst", "ratio", "lower"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{"cpu." + m + "_pct", "%", "lower"})
	}
	return append(defs,
		metricDef{"client.rtt_us.send", "us", "lower"},
		metricDef{"client.rtt_us.clock_until_recv", "us", "lower"},
		metricDef{"client.rtt_us.recv", "us", "lower"},
		metricDef{"client.rtt_us.batch", "us", "lower"},
		metricDef{"client.encode_ns", "ns", "lower"},
		metricDef{"server.decode_ns", "ns", "lower"},
		metricDef{"server.encode_ns", "ns", "lower"},
		metricDef{"server.exec_ns", "ns", "lower"},
		metricDef{"server.transport_ns", "ns", "lower"},
		metricDef{"server.heap_kb_per_session", "KB", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// options configure one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration // the measured phase (split in two when traced)
	trace    bool
	sessions int    // hmcd fleet size: 10,000, fewer in the package tests
	setups   int    // least number of from-scratch set-ups behind setup_s
	dir      string // scratch directory for sockets and profiles
}

// tally is what one timed phase measured.
type tally struct {
	ops    uint64        // operations attempted
	failed uint64        // operations that failed a check
	cycles uint64        // simulated device cycles
	busy   time.Duration // host time the system under test was working
	lat    hist          // one sample per unit of work
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.cycles += o.cycles
	t.lat.merge(&o.lat)
}

// instance is one set-up workload.
type instance interface {
	// warm runs the untimed warm-up pass.
	warm() error
	// run works until the deadline.
	run(until time.Time, t *tally) error
	// traced is run with every call into a layer timed; its ledger
	// carries the per-layer metrics the workload reaches.
	traced(until time.Time, t *tally) (*ledger, error)
	close()
}

// workloadDef is one named input set of the benchmark; BENCHMARK.json
// and README.md give the reason for each.
type workloadDef struct {
	name string
	open func(o *options) (instance, error)
}

var workloads = []workloadDef{
	{"paper-sweep", openSweep},
	{"random-access", openGUPS},
	{"hmcd-json", openHmcdJSON},
	{"hmcd-binary-batch", openHmcdBatch},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// report is a finished run.
type report struct {
	o         options
	lines     []string // context printed above the metrics
	attempted uint64
	failed    uint64
	defs      []metricDef
	metrics   map[string]float64
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable lines, then the result as the last
// line. The first line names the workload for the comparator.
func (r *report) print(w io.Writer) error {
	trace := 0
	if r.o.trace {
		trace = 1
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %d gomaxprocs %d nproc %d go %s\n",
		r.o.workload, r.o.seed, r.o.seconds.Seconds(), trace,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	res := jsonResult{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(r.defs)),
	}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		fmt.Fprintf(w, "metric %-36s %16.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio is a/b, or 0 when b is 0 (the JSON result cannot carry NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives a well-spread 64-bit value from its inputs (splitmix64
// finalization over a running combination): the benchmark's inputs all
// derive from the seed through it.
func mix(xs ...uint64) uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	for _, x := range xs {
		h ^= x + 0x9E3779B97F4A7C15 + h<<6 + h>>2
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// liveHeapBytes is the live heap after a full collection.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A run sets up at least options.setups times, and more, up to setupMax,
// until the set-ups have taken setupFloor together: a device
// simulator builds in microseconds, too quick for a median of five to
// repeat across runs.
const (
	setupFloor = 200 * time.Millisecond
	setupMax   = 1000
)

// runBench executes one run as o describes.
func runBench(o options) (*report, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := &report{o: o, metrics: make(map[string]float64)}
	if o.trace {
		return rep, traceRun(w, &o, rep)
	}
	rep.defs = endToEnd

	// Set up from scratch several times, and keep going while the set-ups
	// are too quick to time singly; the last instance is measured.
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < o.setups || (spent < setupFloor && i < setupMax); i++ {
		if inst != nil {
			inst.close()
		}
		if i < o.setups {
			// Collect the previous fleet. Not before the extra, quick
			// set-ups: there the collection's sweeping would land in
			// the next set-up's time and dominate it.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.open(&o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	var t tally
	if err := inst.run(time.Now().Add(o.seconds), &t); err != nil {
		return nil, err
	}
	heap := liveHeapBytes()

	rep.attempted, rep.failed = t.ops, t.failed
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = ratio(float64(t.ops), t.busy.Seconds())
	// On hmcd every round advances the same simulated cycles, so there
	// this is ops_per_s times a constant of the model, not a second
	// measure of host speed; it is printed because every workload prints
	// every end-to-end metric.
	m["sim_cycles_per_s"] = ratio(float64(t.cycles), t.busy.Seconds())
	m["latency_p50_us"] = t.lat.quantile(0.50) / 1e3
	m["latency_p99_us"] = t.lat.quantile(0.99) / 1e3
	m["heap_mb"] = float64(heap) / 1e6
	q1, q3 := quartiles(setups)
	rep.notef("setup_s median of %d set-ups, quartiles [%.6g, %.6g] s", len(setups), q1, q3)
	rep.notef("measured %.3f s busy, %d ops, %d failed, %d cycles, %d latency samples, %d beyond p99",
		t.busy.Seconds(), t.ops, t.failed, t.cycles, t.lat.n, t.lat.n-t.lat.rank(0.99))
	return rep, nil
}

// traceRun measures the untraced and traced variants back to back on
// one instance, each for half the run, and reports the per-layer
// metrics, the CPU profile split by module and the tracing overhead.
// The CPU profile samples the untraced half, so the timers' own cost
// does not distort the module shares.
func traceRun(w workloadDef, o *options, rep *report) error {
	rep.defs = perLayer
	for _, d := range perLayer {
		rep.metrics[d.name] = 0
	}
	heap0 := liveHeapBytes()
	inst, err := w.open(o)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	half := o.seconds / 2

	prof, err := startProfile(filepath.Join(o.dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	var plain tally
	err = inst.run(time.Now().Add(half), &plain)
	if stopErr := prof.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	shares, err := prof.moduleShares()
	if err != nil {
		return err
	}
	runtime.GC()

	var tr tally
	led, err := inst.traced(time.Now().Add(half), &tr)
	if err != nil {
		return err
	}
	heap1 := liveHeapBytes()

	rep.attempted = plain.ops + tr.ops
	rep.failed = plain.failed + tr.failed
	m := rep.metrics
	for k, v := range led.metrics {
		m[k] = v
	}
	var sum float64
	for _, mod := range modules {
		m["cpu."+mod+"_pct"] = shares[mod]
		sum += shares[mod]
	}
	if led.perSession {
		m["server.heap_kb_per_session"] = (float64(heap1) - float64(heap0)) / 1e3 / float64(o.sessions)
	}
	plainRate := ratio(float64(plain.ops), plain.busy.Seconds())
	tracedRate := ratio(float64(tr.ops), tr.busy.Seconds())
	m["trace.overhead_pct"] = 100 * (1 - ratio(tracedRate, plainRate))

	rep.notef("untraced %d ops in %.3f s (%.6g op/s); traced %d ops in %.3f s (%.6g op/s)",
		plain.ops, plain.busy.Seconds(), plainRate, tr.ops, tr.busy.Seconds(), tracedRate)
	rep.lines = append(rep.lines, led.rows()...)
	rep.notef("cpu shares sum %.2f %% over %.2f s of samples", sum, prof.samples.Seconds())
	if !led.closes() {
		rep.notef("LEDGER DOES NOT CLOSE")
		rep.failed++
	}
	if sum < 99.5 || sum > 100.5 {
		rep.notef("CPU SHARES DO NOT SUM TO 100")
		rep.failed++
	}
	return nil
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (paper-sweep, random-access, hmcd-json, hmcd-binary-batch)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := findWorkload(*name); !ok {
		return options{}, fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return options{}, errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	return options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sessions: 10000,
		setups:   5,
	}, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(runMain(o))
}

// runMain runs in a scratch directory under .bench_build of the current
// directory (the repository root, under run.sh) and removes it after.
func runMain(o options) int {
	o.dir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(o.dir)
	rep, err := runBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed their checks\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}
