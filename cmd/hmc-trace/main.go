// Command hmc-trace analyzes JSONL trace files produced by the
// simulator's tracing subsystem (hmcsim -trace <file>): record counts per
// category, per-command breakdowns (CMC operations under their registered
// names, as the paper's discrete-tracing requirement demands), round-trip
// latency statistics, and the per-vault distribution of executed
// requests.
//
// It also tabulates the cycle-indexed metrics time series the sampler
// writes (hmc-bench -sample): per-interval request throughput, link
// bandwidth, queue occupancy and power draw, plus the end-of-run latency
// histogram summaries (the per-thread MIN/MAX/AVG_CYCLE view).
//
// hmc-trace only reads files; it never runs a simulation. To record a
// span trace, run the workload with hmcsim -spans -span-out.
//
// Usage:
//
//	hmc-trace trace.jsonl
//	hmc-trace -top 5 trace.jsonl
//	hmc-trace -sample series.jsonl            # interval table only
//	hmc-trace -sample series.jsonl trace.jsonl  # both reports
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	top := flag.Int("top", 10, "how many commands/vaults to list")
	samplePath := flag.String("sample", "", "tabulate a metrics time series (sampler JSONL)")
	ghz := flag.Float64("ghz", 1.25, "device clock in GHz for bandwidth/power columns")
	flag.Parse()

	if flag.NArg() > 1 || (flag.NArg() == 0 && *samplePath == "") {
		fmt.Fprintln(os.Stderr, "usage: hmc-trace [-top N] [-sample series.jsonl [-ghz G]] [trace.jsonl]")
		os.Exit(2)
	}

	if *samplePath != "" {
		f, err := os.Open(*samplePath)
		if err != nil {
			fatal(err)
		}
		samples, err := metrics.ParseSamples(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Print(metrics.IntervalReport(samples, *ghz))
	}

	if flag.NArg() == 1 {
		if *samplePath != "" {
			fmt.Println()
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		events, err := trace.ParseJSONL(f)
		if err != nil {
			fatal(err)
		}
		fmt.Print(trace.Analyze(events).Report(*top))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmc-trace:", err)
	os.Exit(1)
}
