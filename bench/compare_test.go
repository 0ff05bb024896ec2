package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{4, 1}, 0.25, 4.75}, // extrapolated, as Python does
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// series returns n values around base, spread ±spread (a share of
// base) in a fixed zigzag.
func series(base, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + spread*float64(i%5-2)/2)
	}
	return xs
}

func TestJudge(t *testing.T) {
	parent := series(1000, 0.02, 10) // ±2 %
	for _, c := range []struct {
		name   string
		better string
		change []float64
		want   string
	}{
		{"identical", "higher", series(1000, 0.02, 10), verdictSame},
		{"small gain inside the noise", "higher", series(1010, 0.02, 10), verdictSame},
		{"clear gain", "higher", series(1150, 0.02, 10), verdictImproved},
		{"clear gain, lower is better", "lower", series(850, 0.02, 10), verdictImproved},
		{"loss beyond the bound", "higher", series(850, 0.02, 10), verdictWorse},
		{"rise beyond the bound, lower is better", "lower", series(1150, 0.02, 10), verdictWorse},
		{"loss inside the bound", "higher", series(950, 0.02, 10), verdictSame},
		{"spread wider than the bound", "higher", series(1000, 0.4, 10), verdictUnresolved},
		{"wide spread but every run better", "higher", series(2000, 0.4, 10), verdictImproved},
		{"no change runs", "higher", nil, verdictMissing},
	} {
		if got := judge(c.better, 0.1, parent, c.change); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// writeRun saves a synthetic run output in the benchmark's format.
func writeRun(t *testing.T, dir, name, workload string, failed uint64, ops float64) string {
	t.Helper()
	rep := &report{
		o:         options{workload: workload, seed: 1},
		attempted: 1000,
		failed:    failed,
		defs:      endToEnd,
		metrics:   map[string]float64{},
	}
	for _, d := range endToEnd {
		rep.metrics[d.name] = 100
	}
	rep.metrics["ops_per_s"] = ops
	var b bytes.Buffer
	if err := rep.print(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareFiles drives the comparator on saved outputs under the
// bounds of BENCHMARK.json: the same runs on both sides pass, a
// throughput drop beyond every bound fails, and so does a rise in the
// failed ratio.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec{EndToEnd: loadBenchmarkJSON(t).EndToEnd}
	var parent, same, slower, failing []string
	for i := 0; i < 5; i++ {
		ops := 1000 + float64(i)
		parent = append(parent, writeRun(t, dir, fmt.Sprintf("p%d", i), "paper-sweep", 0, ops))
		same = append(same, writeRun(t, dir, fmt.Sprintf("s%d", i), "paper-sweep", 0, ops+1))
		slower = append(slower, writeRun(t, dir, fmt.Sprintf("w%d", i), "paper-sweep", 0, ops*0.7))
		failing = append(failing, writeRun(t, dir, fmt.Sprintf("f%d", i), "paper-sweep", 3, ops))
	}
	run := func(change []string) (int, string) {
		var out, errOut bytes.Buffer
		args := append(append(append([]string(nil), parent...), "--"), change...)
		code := compareFiles(spec, args, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	if code, out := run(same); code != 0 || strings.Contains(out, verdictWorse) {
		t.Errorf("same runs: exit %d\n%s", code, out)
	}
	if code, out := run(slower); code != 1 || !strings.Contains(out, "ops_per_s") {
		t.Errorf("30 %% slower: exit %d\n%s", code, out)
	}
	code, out := run(failing)
	if code != 1 {
		t.Errorf("failed ratio rise: exit %d\n%s", code, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "failed_ratio") && !strings.HasSuffix(line, verdictWorse) {
			t.Errorf("failed ratio rise not judged worse: %s", line)
		}
	}
}
