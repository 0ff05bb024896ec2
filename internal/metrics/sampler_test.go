package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sampleRegistry() (*Registry, *Counter, *Histogram) {
	r := NewRegistry()
	c := r.Counter(NameRqsts, L("dev", "0"))
	h := r.Histogram("hmc_request_latency_cycles", L("dev", "0"))
	r.Gauge(NameLinkRqstOcc, L("dev", "0"), L("link", "0")).Set(3)
	return r, c, h
}

// TestSamplerNext pins the span boundary clock drivers end on: the
// first sampling cycle strictly after the given one, and never when
// periodic sampling is off or the next period would overflow.
func TestSamplerNext(t *testing.T) {
	sm := NewSampler(NewRegistry(), &bytes.Buffer{}, 7)
	for _, c := range []struct{ cycle, want uint64 }{
		{0, 7}, {6, 7}, {7, 14}, {8, 14}, {math.MaxUint64 - 3, math.MaxUint64},
	} {
		if got := sm.Next(c.cycle); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.cycle, got, c.want)
		}
	}
	if got := NewSampler(NewRegistry(), &bytes.Buffer{}, 0).Next(5); got != math.MaxUint64 {
		t.Errorf("Next with sampling off = %d, want the largest uint64", got)
	}
}

func TestSamplerRoundTrip(t *testing.T) {
	r, c, h := sampleRegistry()
	var buf bytes.Buffer
	sm := NewSampler(r, &buf, 10, WithTags(L("config", "test"), L("threads", "4")))

	c.Add(5)
	h.Observe(12)
	sm.MaybeSample(5) // off-period: no output
	sm.MaybeSample(10)
	c.Add(7)
	h.Observe(40)
	sm.MaybeSample(20)
	if err := sm.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	samples, err := ParseSamples(&buf)
	if err != nil {
		t.Fatalf("ParseSamples: %v", err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	s0, s1 := samples[0], samples[1]
	if s0.Cycle != 10 || s1.Cycle != 20 {
		t.Errorf("cycles = %d, %d", s0.Cycle, s1.Cycle)
	}
	if s0.Tags["config"] != "test" || s0.Tags["threads"] != "4" {
		t.Errorf("tags = %v", s0.Tags)
	}
	key := NameRqsts + "{dev=0}"
	if s0.Values[key] != 5 || s1.Values[key] != 12 {
		t.Errorf("counter values = %v, %v", s0.Values[key], s1.Values[key])
	}
	hk := "hmc_request_latency_cycles{dev=0}"
	hs := s1.Hists[hk]
	if hs.Count != 2 || hs.Sum != 52 || hs.Min != 12 || hs.Max != 40 {
		t.Errorf("hist summary = %+v", hs)
	}
	occ := NameLinkRqstOcc + "{dev=0,link=0}"
	if s1.Values[occ] != 3 {
		t.Errorf("gauge value = %v", s1.Values[occ])
	}
}

func TestSamplerDisabled(t *testing.T) {
	r, _, _ := sampleRegistry()
	var buf bytes.Buffer
	sm := NewSampler(r, &buf, 0)
	sm.MaybeSample(0)
	sm.MaybeSample(64)
	if err := sm.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("every=0 sampler wrote %q", buf.String())
	}
	// Explicit Sample still works.
	sm.Sample(7)
	_ = sm.Flush()
	if buf.Len() == 0 {
		t.Error("explicit Sample wrote nothing")
	}
}

func TestIntervalReport(t *testing.T) {
	mk := func(cycle uint64, rqsts, flits, pj float64) Sample {
		return Sample{
			Cycle: cycle,
			Tags:  map[string]string{"threads": "4"},
			Values: map[string]float64{
				NameRqsts + "{dev=0}":              rqsts,
				NameLinkFlits + "{dev=0,dir=rqst}": flits,
				NameLinkRqstOcc + "{dev=0,link=0}": 2,
				NameVaultOccTotal + "{dev=0}":      6,
				NamePowerTotal + "{dev=0}":         pj,
			},
			Hists: map[string]HistSummary{
				"hmc_workload_completion_cycles": {Count: 4, Sum: 400, Min: 50, Max: 200},
			},
		}
	}
	samples := []Sample{mk(100, 10, 160, 1e6), mk(200, 30, 480, 3e6)}
	got := IntervalReport(samples, 1.25)
	for _, want := range []string{
		"run: threads=4",
		"200", // second interval row
		"hmc_workload_completion_cycles: n=4 min=50 max=200 avg=100.00",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// 320 flits over 100 cycles at 1.25 GHz = 320*16 B / 80 ns = 64 GB/s.
	if !strings.Contains(got, "64.00") {
		t.Errorf("report missing bandwidth 64.00:\n%s", got)
	}
	// 2e6 pJ over 80 ns = 25 W.
	if !strings.Contains(got, "25.000") {
		t.Errorf("report missing power 25.000:\n%s", got)
	}

	if got := IntervalReport(nil, 1.25); got != "no samples\n" {
		t.Errorf("empty report = %q", got)
	}
}

// TestParseSamplesEmptyFile pins the hmc-trace -sample path for an
// empty series file: no samples, no error, and the report degrades to
// its "no samples" form instead of panicking.
func TestParseSamplesEmptyFile(t *testing.T) {
	samples, err := ParseSamples(strings.NewReader(""))
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if len(samples) != 0 {
		t.Fatalf("parsed %d samples from empty stream", len(samples))
	}
	if got := IntervalReport(samples, 1.25); got != "no samples\n" {
		t.Fatalf("empty report = %q", got)
	}
}

// TestIntervalReportSingleSample covers a series with one record — no
// interval pair exists, so the table is headers-only, but the final
// histogram summary must still print.
func TestIntervalReportSingleSample(t *testing.T) {
	samples := []Sample{{
		Cycle:  500,
		Values: map[string]float64{NameRqsts + "{dev=0}": 42},
		Hists: map[string]HistSummary{
			"hmc_workload_completion_cycles": {Count: 2, Sum: 100, Min: 40, Max: 60},
		},
	}}
	got := IntervalReport(samples, 1.25)
	if !strings.Contains(got, "cycle") {
		t.Errorf("single-sample report lost its header:\n%s", got)
	}
	if strings.Contains(got, "\n500 ") {
		t.Errorf("single sample produced an interval row:\n%s", got)
	}
	if !strings.Contains(got, "hmc_workload_completion_cycles: n=2 min=40 max=60 avg=50.00") {
		t.Errorf("single-sample report lost the histogram summary:\n%s", got)
	}
	// Duplicate cycles (a final unconditional Sample landing on a
	// periodic boundary) must not divide by a zero interval.
	samples = append(samples, samples[0])
	if got := IntervalReport(samples, 1.25); strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Errorf("zero-width interval leaked into the report:\n%s", got)
	}
}

// TestParseSamplesMixedTags round-trips an interleaved two-run stream —
// the shape hmc-bench -sample writes when both configs share one JSONL file —
// and checks the report groups rows per tag set in first-seen order.
func TestParseSamplesMixedTags(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	mk := func(cfg string, cycle uint64, rqsts float64) Sample {
		return Sample{
			Cycle:  cycle,
			Tags:   map[string]string{"config": cfg},
			Values: map[string]float64{NameRqsts + "{dev=0}": rqsts},
		}
	}
	// Interleaved on purpose: grouping must not depend on file order.
	for _, s := range []Sample{
		mk("4Link-4GB", 100, 10), mk("8Link-8GB", 100, 20),
		mk("4Link-4GB", 200, 30), mk("8Link-8GB", 200, 60),
	} {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := ParseSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	for i, s := range samples {
		if len(s.Tags) != 1 || len(s.Values) != 1 {
			t.Fatalf("sample %d lost fields in round trip: %+v", i, s)
		}
	}
	got := IntervalReport(samples, 1.25)
	four := strings.Index(got, "run: config=4Link-4GB")
	eight := strings.Index(got, "run: config=8Link-8GB")
	if four < 0 || eight < 0 || four > eight {
		t.Fatalf("report does not group tag sets in first-seen order:\n%s", got)
	}
	// Each group computed its own interval deltas: 30-10 and 60-20.
	if !strings.Contains(got, "20 ") || !strings.Contains(got, "40 ") {
		t.Errorf("per-group request deltas missing:\n%s", got)
	}
}
