package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// boundedMetric is one end-to-end metric of BENCHMARK.json: the share
// of the parent's median by which it may worsen.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// runOutput is one saved run: the workload from its first line and the
// result from its last.
type runOutput struct {
	workload          string
	attempted, failed uint64
	metrics           map[string]float64
}

func readRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	var r runOutput
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if f := strings.Fields(line); r.workload == "" && len(f) > 1 && f[0] == "workload" {
			r.workload = f[1]
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	var res struct {
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no workload line", path)
	}
	r.attempted, r.failed = res.Attempted, res.Failed
	r.metrics = make(map[string]float64, len(res.Metrics))
	for k, m := range res.Metrics {
		r.metrics[k] = m.Value
	}
	return r, nil
}

// summary is one side's distribution of a metric.
type summary struct {
	n           int
	med, q1, q3 float64
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{n: len(xs), med: median(xs), q1: q1, q3: q3}
}

func (s summary) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.med, s.q1, s.q3, s.n)
}

// Verdicts.
const (
	verdictSame       = "same"
	verdictImproved   = "improved"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares a metric's parent and change runs, given in the order
// they were made (run i of each side forms pair i):
//
//   - worse: the change's median is worse than the parent's by more
//     than bound (a share of the parent's median);
//   - unresolved: either side's quartile spread, as a share of its
//     median, exceeds bound, unless every change run beats every parent
//     run;
//   - improved: the change wins at least 9 of every 10 pairs (ties count
//     for neither side) and its median beats the parent's by more than
//     the parent's quartile spread;
//   - same: none of these.
func judge(better string, bound float64, parent, change []float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return verdictMissing
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	p, c := summarize(parent), summarize(change)
	gain := sign * (c.med - p.med) // > 0 when the change is better
	if ratio(gain, math.Abs(p.med)) < -bound {
		return verdictWorse
	}
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && sign*(x-y) > 0
		}
	}
	spread := math.Max(ratio(p.q3-p.q1, math.Abs(p.med)), ratio(c.q3-c.q1, math.Abs(c.med)))
	if spread > bound && !allBetter {
		return verdictUnresolved
	}
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	if 10*wins >= 9*pairs && gain > p.q3-p.q1 {
		return verdictImproved
	}
	return verdictSame
}

// comparison is one row of the comparator's table.
type comparison struct {
	workload, metric string
	parent, change   summary
	verdict          string
}

// compareRuns judges every bounded metric on every workload that either
// side ran, plus each workload's failed ratio, which may not rise.
func compareRuns(spec benchSpec, parent, change []runOutput) []comparison {
	byWorkload := func(runs []runOutput) map[string][]runOutput {
		m := make(map[string][]runOutput)
		for _, r := range runs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for w := range pw {
		names = append(names, w)
	}
	for w := range cw {
		if _, ok := pw[w]; !ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	values := func(runs []runOutput, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.metrics[metric]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	failedRatio := func(runs []runOutput) float64 {
		var a, f uint64
		for _, r := range runs {
			a += r.attempted
			f += r.failed
		}
		return ratio(float64(f), float64(a))
	}

	var out []comparison
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			p, c := values(pw[w], m.Name), values(cw[w], m.Name)
			out = append(out, comparison{
				workload: w, metric: m.Name,
				parent: summarize(p), change: summarize(c),
				verdict: judge(m.Better, m.Bound, p, c),
			})
		}
		fp, fc := failedRatio(pw[w]), failedRatio(cw[w])
		v := verdictSame
		switch {
		case len(pw[w]) == 0 || len(cw[w]) == 0:
			v = verdictMissing
		case fc > fp:
			v = verdictWorse
		}
		out = append(out, comparison{
			workload: w, metric: "failed_ratio",
			parent:  summary{n: len(pw[w]), med: fp, q1: fp, q3: fp},
			change:  summary{n: len(cw[w]), med: fc, q1: fc, q3: fc},
			verdict: v,
		})
	}
	return out
}

// compareMain is `bench compare <parent outputs…> -- <change outputs…>`,
// run from the repository root: each metric's direction and bound come
// from its BENCHMARK.json. It exits 1 on any worse verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(stderr, "bench compare: BENCHMARK.json:", err)
		return 2
	}
	return compareFiles(spec, args, stdout, stderr)
}

// compareFiles judges the saved outputs args names, parent runs before
// the "--" and change runs after it, and prints the comparison table.
func compareFiles(spec benchSpec, args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench compare <parent outputs…> -- <change outputs…>")
		return 2
	}
	load := func(paths []string) ([]runOutput, error) {
		var runs []runOutput
		var errs []error
		for _, p := range paths {
			r, err := readRun(p)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			runs = append(runs, r)
		}
		return runs, errors.Join(errs...)
	}
	parent, err := load(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	change, err := load(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}

	rows := compareRuns(spec, parent, change)
	fmt.Fprintf(stdout, "%-18s %-18s %-44s %-44s %9s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	code := 0
	for _, r := range rows {
		delta := 100 * ratio(r.change.med-r.parent.med, math.Abs(r.parent.med))
		fmt.Fprintf(stdout, "%-18s %-18s %-44s %-44s %+8.2f%%  %s\n",
			r.workload, r.metric, r.parent, r.change, delta, r.verdict)
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	return code
}
