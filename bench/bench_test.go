package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the schema of BENCHMARK.json; decoding rejects any
// other key.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark's own
// definitions and the limits its schema sets.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark prints %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, want metricDef) {
		if name != want.name || unit != want.unit || better != want.better {
			t.Errorf("BENCHMARK.json has %s %s %s, the benchmark prints %s %s %s",
				name, unit, better, want.name, want.unit, want.better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", name, unit)
		}
		seen[name] = true
	}
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound < 0.1 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside [0.1, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
}

// TestSmoke runs every workload briefly on a small fleet, untraced and
// traced, and checks each result line: every metric BENCHMARK.json
// names is there with its unit, no operation failed, and the traced
// ledger closes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{
				workload: w.name, seed: 7, seconds: 300 * time.Millisecond, trace: trace,
				sessions: 200, setups: 2, dir: t.TempDir(),
			}
			rep, err := runBench(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, m.Value)
				}
			}
			if trace {
				var sum float64
				for _, mod := range modules {
					sum += res.Metrics["cpu."+mod+"_pct"].Value
				}
				if math.Abs(sum-100) > 0.5 {
					t.Errorf("%s: cpu shares sum to %g", w.name, sum)
				}
				if !strings.Contains(out.String(), "ledger sum") {
					t.Errorf("%s: no ledger in the traced output", w.name)
				}
			}
		}
	}
}

// TestLedgerCloses checks the closing rule on hand-made ledgers.
func TestLedgerCloses(t *testing.T) {
	l := &ledger{wall: time.Second, parts: []ledgerPart{{"a", 600 * time.Millisecond}, {"b", 300 * time.Millisecond}}}
	if !l.closes() || l.rest() != 100*time.Millisecond {
		t.Errorf("ledger with a 10%% remainder: closes=%v rest=%v", l.closes(), l.rest())
	}
	l.parts[1].d = 420 * time.Millisecond // 2 % counted twice
	if l.closes() {
		t.Error("ledger whose parts exceed wall by 2 % closes")
	}
}

// TestHistQuantile checks the histogram's percentiles against exact
// ones on a wide random sample: within 1 %.
func TestHistQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 100000)
	for i := range xs {
		v := int64(math.Exp(r.Float64() * 20)) // 1 ns .. ~0.5 s
		xs[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		if got := h.quantile(q); math.Abs(got-exact) > 0.01*exact+0.5 {
			t.Errorf("q%.3f = %g, exact %g", q, got, exact)
		}
	}
}

// TestModuleOf spot-checks the CPU profile grouping.
func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/device.(*Device).execVault":           "device",
		"repro/internal/queue.(*Queue[go.shape.*uint8]).Push": "queue",
		"repro/internal/cmc/script.(*Program).Execute":        "cmc",
		"repro/cmcops.TryLock.Execute":                        "cmc",
		"main.runTwin":                                        "bench",
		"sync.(*Pool).Put":                                    "sync",
		"runtime.mallocgc":                                    "gc",
		"runtime.gcBgMarkWorker":                              "gc",
		"internal/runtime/syscall.Syscall6":                   "syscall",
		"runtime.ready":                                       "sched",
		"runtime.selectgo":                                    "sched",
		"runtime.memmove":                                     "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %s, want %s", fn, got, want)
		}
	}
}
