package main

import (
	"bytes"
	"strings"
	"testing"

	hmcsim "repro"
	"repro/internal/paper"
)

// TestReportSections renders the report over a small sweep and checks
// every section of the paper's evaluation is present, and that the
// ablations stay out (ablation_bench_test.go prints those).
func TestReportSections(t *testing.T) {
	var buf bytes.Buffer
	if err := paper.Write(&buf, 2, 8, 0, nil, hmcsim.FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Table I: Gen2 command support",
		"| RD256 | 119 | 1 | 17 |",
		"## Table II: AMO efficiency",
		"| Cache-Based |",
		"## Table V: CMC mutex operations",
		"| hmc_lock | CMC125 |",
		"## Table VI: mutex sweep extrema",
		"| 4Link-4GB | 6 |",
		"## Figure 5: Minimum Lock Cycles",
		"## Figure 6: Maximum Lock Cycles",
		"## Figure 7: Average Lock Cycles",
		"| 8 | 6 | 6 |",
		"## Supp. A: STREAM Triad",
		"## Supp. A: HPCC RandomAccess",
		"## Supp. B: graph BFS",
		"## Supp. C: random requests vs device configuration",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "Ablation") {
		t.Error("report carries ablation rows")
	}
}

// TestReportUnderFaults regenerates a small report with 1% fault
// injection: every experiment must still complete, and the banner must
// record the plan.
func TestReportUnderFaults(t *testing.T) {
	var buf bytes.Buffer
	if err := paper.Write(&buf, 2, 4, 0, nil, hmcsim.FaultPlan{Rate: 0.01, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "link fault injection") {
		t.Error("report missing the fault-injection banner")
	}
	for _, want := range []string{"## Table VI: mutex sweep extrema", "## Supp. C:"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulted report missing %q", want)
		}
	}
}
