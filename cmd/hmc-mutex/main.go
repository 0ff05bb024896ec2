// Command hmc-mutex reproduces the paper's CMC mutex evaluation (§V):
// Algorithm 1 driven from 2..100 simulated threads against the 4Link-4GB
// and 8Link-8GB configurations, reporting the MIN/MAX/AVG cycle metrics
// of Figures 5-7 and the sweep extrema of Table VI.
//
// Usage:
//
//	hmc-mutex                  # Table VI plus all three figure series
//	hmc-mutex -figure 6        # one figure's series only
//	hmc-mutex -table           # Table VI only
//	hmc-mutex -lo 2 -hi 50     # restrict the thread sweep
//	hmc-mutex -csv out.csv     # machine-readable sweep dump
//	hmc-mutex -workers 0       # sweep across all schedulable cores (default)
//	hmc-mutex -workers 1       # serial sweep
//
// Observability:
//
//	hmc-mutex -listen :8080         # live endpoint: /metrics, /debug/vars, /debug/pprof/
//	hmc-mutex -sample series.jsonl  # cycle-indexed time series from one
//	                                # fully instrumented run per config
//	                                # (tabulate with: hmc-trace -sample series.jsonl)
//	hmc-mutex -spans -span-out spans.json
//	                                # request-lifecycle span trace from one
//	                                # instrumented run per config (load the
//	                                # JSON at ui.perfetto.dev)
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	hmcsim "repro"
	"repro/internal/metricsflag"
	"repro/internal/spanflag"
)

func main() {
	lo := flag.Int("lo", 2, "lowest thread count")
	hi := flag.Int("hi", 100, "highest thread count")
	addr := flag.Uint64("addr", 0x40, "lock block address")
	figure := flag.Int("figure", 0, "print only one figure series (5, 6 or 7)")
	tableOnly := flag.Bool("table", false, "print only Table VI")
	csvPath := flag.String("csv", "", "write the full sweep to a CSV file")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = one per schedulable core, i.e. GOMAXPROCS; 1 = serial; each worker reuses one simulator session across its points)")
	metricsFlags := metricsflag.Register()
	samplePath := flag.String("sample", "", "write a cycle-indexed metrics time series (JSONL) from one instrumented run per config")
	sampleEvery := flag.Uint64("sample-every", 64, "time-series sampling period in device cycles")
	sampleThreads := flag.Int("sample-threads", 0, "thread count for the instrumented sample runs (0 = hi)")
	faultRate := flag.Float64("fault-rate", 0, "per-traversal link fault probability in [0,1] (0 disables injection)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection seed; the same seed reproduces the exact fault sequence")
	faultKinds := flag.String("fault-kinds", "all", "comma-separated fault kinds: crc, flip, drop, down or all")
	eventClock := flag.Bool("event-clock", true, "event-driven cycle scheduler: fast-forward provably idle spans (false = per-cycle reference engine)")
	spanFlags := spanflag.Register()
	flag.Parse()

	if *lo < 2 || *hi < *lo {
		fmt.Fprintln(os.Stderr, "hmc-mutex: need 2 <= lo <= hi")
		os.Exit(2)
	}

	var opts []hmcsim.Option
	if !*eventClock {
		opts = append(opts, hmcsim.WithEventClock(false))
	}
	if *faultRate > 0 {
		kinds, err := hmcsim.ParseFaultKinds(*faultKinds)
		if err != nil {
			fatal(err)
		}
		plan := hmcsim.FaultPlan{Rate: *faultRate, Seed: *faultSeed, Kinds: kinds}
		opts = append(opts, hmcsim.WithFaults(plan))
		fmt.Fprintf(os.Stderr, "hmc-mutex: fault injection: %v\n", plan)
	}

	// The sweep builds thousands of short-lived simulators, so the live
	// endpoint exposes aggregate push counters fed by the per-run progress
	// hook rather than registering every simulator.
	var progress func(hmcsim.MutexRun)
	if metricsFlags.Listen != "" {
		reg := hmcsim.NewMetricsRegistry()
		progress = metricsflag.SweepProgress(reg)
		if _, err := metricsFlags.Serve("hmc-mutex", reg); err != nil {
			fatal(err)
		}
	}

	four, err := hmcsim.MutexSweepWithProgress(hmcsim.FourLink4GB(), *lo, *hi, *addr, *workers, progress, opts...)
	if err != nil {
		fatal(err)
	}
	eight, err := hmcsim.MutexSweepWithProgress(hmcsim.EightLink8GB(), *lo, *hi, *addr, *workers, progress, opts...)
	if err != nil {
		fatal(err)
	}

	if *samplePath != "" {
		threads := *sampleThreads
		if threads <= 0 {
			threads = *hi
		}
		if err := writeSampleSeries(*samplePath, *sampleEvery, threads, *addr, opts); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (threads=%d, every %d cycles)\n", *samplePath, threads, *sampleEvery)
	}

	// The sweep itself builds thousands of simulators, so span tracing
	// runs as one extra instrumented mutex run per configuration (the
	// -sample pattern) rather than recording every sweep point.
	if tr := spanFlags.Tracer(); tr != nil {
		threads := *sampleThreads
		if threads <= 0 {
			threads = *hi
		}
		for _, cfg := range []hmcsim.Config{hmcsim.FourLink4GB(), hmcsim.EightLink8GB()} {
			if _, err := hmcsim.RunMutex(cfg, threads, *addr,
				append([]hmcsim.Option{hmcsim.WithSpans(tr)}, opts...)...); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("span-traced mutex runs (threads=%d):\n", threads)
		if err := spanFlags.Finish(os.Stdout, tr); err != nil {
			fatal(err)
		}
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, four, eight); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	if *figure == 0 || *tableOnly {
		printTableVI(four, eight)
	}
	if !*tableOnly {
		if *figure == 0 || *figure == 5 {
			printFigure(5, "Minimum Lock Cycles", four, eight, func(r hmcsim.MutexRun) float64 { return float64(r.Min) })
		}
		if *figure == 0 || *figure == 6 {
			printFigure(6, "Maximum Lock Cycles", four, eight, func(r hmcsim.MutexRun) float64 { return float64(r.Max) })
		}
		if *figure == 0 || *figure == 7 {
			printFigure(7, "Average Lock Cycles", four, eight, func(r hmcsim.MutexRun) float64 { return r.Avg })
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmc-mutex:", err)
	os.Exit(1)
}

// writeSampleSeries reruns the mutex workload once per configuration with
// the full metrics stack attached — device counters, per-class latency
// histograms, power gauges, workload completion histograms — sampling the
// registry every `every` cycles into one shared JSONL stream. Each run is
// tagged with its config and thread count, and a final unconditional
// sample captures the end-of-run state (completion histograms fill after
// the last periodic sample).
func writeSampleSeries(path string, every uint64, threads int, lockAddr uint64, extra []hmcsim.Option) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, cfg := range []hmcsim.Config{hmcsim.FourLink4GB(), hmcsim.EightLink8GB()} {
		reg := hmcsim.NewMetricsRegistry()
		sm := hmcsim.NewMetricsSampler(reg, f, every, hmcsim.WithSamplerTags(
			hmcsim.MetricsL("config", cfg.String()),
			hmcsim.MetricsL("threads", strconv.Itoa(threads)),
		))
		var handle *hmcsim.Simulator
		opts := append([]hmcsim.Option{
			hmcsim.WithMetrics(reg),
			hmcsim.WithSampler(sm),
			hmcsim.WithPower(hmcsim.DefaultPowerParams()),
			hmcsim.WithObserver(func(s *hmcsim.Simulator) { handle = s }),
		}, extra...)
		if _, err := hmcsim.RunMutex(cfg, threads, lockAddr, opts...); err != nil {
			return fmt.Errorf("sample run %s: %w", cfg, err)
		}
		sm.Sample(handle.Cycle())
		if err := sm.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func printTableVI(four, eight hmcsim.MutexSweepResult) {
	fmt.Println("Table VI: CMC Mutex Operations (sweep extrema)")
	fmt.Printf("%-12s %-16s %-16s %-16s\n", "Device", "Min Cycle Count", "Max Cycle Count", "Avg Cycle Count")
	for _, sweep := range []hmcsim.MutexSweepResult{four, eight} {
		minC, maxC, maxAvg := sweep.TableVI()
		fmt.Printf("%-12s %-16d %-16d %-16.2f\n", sweep.Config, minC, maxC, maxAvg)
	}
	fmt.Println()
}

func printFigure(n int, title string, four, eight hmcsim.MutexSweepResult, pick func(hmcsim.MutexRun) float64) {
	fmt.Printf("Figure %d: %s\n", n, title)
	fmt.Printf("%-8s %-14s %-14s\n", "Threads", four.Config.String(), eight.Config.String())
	for i := range four.Runs {
		fmt.Printf("%-8d %-14.2f %-14.2f\n", four.Runs[i].Threads, pick(four.Runs[i]), pick(eight.Runs[i]))
	}
	fmt.Println()
}

func writeCSV(path string, sweeps ...hmcsim.MutexSweepResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"config", "threads", "min_cycle", "max_cycle", "avg_cycle", "trylocks", "send_stalls"}); err != nil {
		return err
	}
	for _, sweep := range sweeps {
		for _, r := range sweep.Runs {
			rec := []string{
				sweep.Config.String(),
				strconv.Itoa(r.Threads),
				strconv.FormatUint(r.Min, 10),
				strconv.FormatUint(r.Max, 10),
				strconv.FormatFloat(r.Avg, 'f', 2, 64),
				strconv.FormatUint(r.Trylocks, 10),
				strconv.FormatUint(r.SendStalls, 10),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}
