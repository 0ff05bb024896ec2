// Command hmc-trace analyzes JSONL trace files produced by the
// simulator's tracing subsystem (hmcsim -trace <file>): record counts per
// category, per-command breakdowns (CMC operations under their registered
// names, as the paper's discrete-tracing requirement demands), round-trip
// latency statistics, and the per-vault distribution of executed
// requests.
//
// It also tabulates the cycle-indexed metrics time series the sampler
// writes (hmc-mutex -sample): per-interval request throughput, link
// bandwidth, queue occupancy and power draw, plus the end-of-run latency
// histogram summaries (the per-thread MIN/MAX/AVG_CYCLE view).
//
// With -spans it switches from offline analysis to recording: it runs
// the CMC mutex workload with the request-lifecycle flight recorder
// attached (the same engine controls the other CLIs expose:
// -event-clock and the fault flags), prints the per-stage latency
// attribution, and writes a Chrome/Perfetto trace for -span-out.
//
// Usage:
//
//	hmc-trace trace.jsonl
//	hmc-trace -top 5 trace.jsonl
//	hmc-trace -sample series.jsonl            # interval table only
//	hmc-trace -sample series.jsonl trace.jsonl  # both reports
//	hmc-trace -spans -span-out trace.json     # record spans, then load
//	                                          # trace.json at ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"os"

	hmcsim "repro"
	"repro/internal/metrics"
	"repro/internal/spanflag"
	"repro/internal/trace"
)

func main() {
	top := flag.Int("top", 10, "how many commands/vaults to list")
	samplePath := flag.String("sample", "", "tabulate a metrics time series (sampler JSONL)")
	ghz := flag.Float64("ghz", 1.25, "device clock in GHz for bandwidth/power columns")
	cfgName := flag.String("config", "4link4gb", "span run: device configuration (4link4gb or 8link8gb)")
	threads := flag.Int("threads", 64, "span run: simulated thread count")
	eventClock := flag.Bool("event-clock", true, "event-driven cycle scheduler: fast-forward provably idle spans (false = per-cycle reference engine)")
	faultRate := flag.Float64("fault-rate", 0, "span run: per-traversal link fault probability in [0,1] (0 disables injection)")
	faultSeed := flag.Uint64("fault-seed", 1, "span run: fault injection seed")
	faultKinds := flag.String("fault-kinds", "all", "span run: comma-separated fault kinds: crc, flip, drop, down or all")
	spanFlags := spanflag.Register()
	flag.Parse()

	if spanFlags.Spans {
		if err := runSpans(spanFlags, *cfgName, *threads, *eventClock,
			*faultRate, *faultSeed, *faultKinds); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() > 1 || (flag.NArg() == 0 && *samplePath == "") {
		fmt.Fprintln(os.Stderr, "usage: hmc-trace [-top N] [-sample series.jsonl [-ghz G]] [-spans [-span-out trace.json]] [trace.jsonl]")
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

// runSpans drives one span-instrumented mutex run and dumps the flight
// recorder: attribution table to stdout, Perfetto JSON to -span-out.
func runSpans(sf *spanflag.Flags, cfgName string, threads int, eventClock bool,
	faultRate float64, faultSeed uint64, faultKinds string) error {
	var cfg hmcsim.Config
	switch cfgName {
	case "4link4gb", "4link-4gb":
		cfg = hmcsim.FourLink4GB()
	case "8link8gb", "8link-8gb":
		cfg = hmcsim.EightLink8GB()
	default:
		return fmt.Errorf("unknown configuration %q", cfgName)
	}
	tr := sf.Tracer()
	opts := []hmcsim.Option{hmcsim.WithSpans(tr)}
	if !eventClock {
		opts = append(opts, hmcsim.WithEventClock(false))
	}
	if faultRate > 0 {
		kinds, err := hmcsim.ParseFaultKinds(faultKinds)
		if err != nil {
			return err
		}
		plan := hmcsim.FaultPlan{Rate: faultRate, Seed: faultSeed, Kinds: kinds}
		opts = append(opts, hmcsim.WithFaults(plan))
		fmt.Printf("fault injection: %v\n", plan)
	}
	run, err := hmcsim.RunMutex(cfg, threads, 0x40, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("mutex %v threads=%d: min=%d max=%d avg=%.2f trylocks=%d stalls=%d\n",
		cfg, run.Threads, run.Min, run.Max, run.Avg, run.Trylocks, run.SendStalls)
	return sf.Finish(os.Stdout, tr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmc-trace:", err)
	os.Exit(1)
}
