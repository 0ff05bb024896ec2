// Command hmc-bench regenerates the paper's evaluation in one run and
// writes it as a Markdown report: Tables I, II, V and VI, the Figure 5-7
// series and the supplementary kernels. internal/paper renders the
// report; its testdata/report.md is the fault-free output.
//
// Usage:
//
//	hmc-bench                 # report to stdout
//	hmc-bench -out report.md  # report to a file
//	hmc-bench -lo 2 -hi 50    # restrict the mutex sweep
//	hmc-bench -workers 1      # serial mutex sweep (default: GOMAXPROCS)
//	hmc-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                          # capture pprof profiles of the full run
//
// Observability:
//
//	hmc-bench -listen :8080         # live endpoint while the report runs:
//	                                # /metrics, /debug/vars, /debug/pprof/
//	hmc-bench -sample series.jsonl  # cycle-indexed time series from one
//	                                # fully instrumented mutex run per
//	                                # preset at -hi threads (tabulate with:
//	                                # hmc-trace -sample series.jsonl)
//	hmc-bench -spans -span-out spans.json
//	                                # request-lifecycle span trace from one
//	                                # instrumented mutex run per preset at
//	                                # -hi threads (load at ui.perfetto.dev)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	hmcsim "repro"
	"repro/internal/cliflag"
	"repro/internal/paper"
)

const lockAddr = 0x40

func main() {
	out := flag.String("out", "", "write the report to this file (default stdout)")
	lo := flag.Int("lo", 2, "mutex sweep: lowest thread count")
	hi := flag.Int("hi", 100, "mutex sweep: highest thread count; also the thread count of the -sample and -spans runs")
	workers := flag.Int("workers", 0, "mutex sweep worker pool size (0 = one per schedulable core, i.e. GOMAXPROCS; 1 = serial; each worker reuses one simulator session across its points)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	samplePath := flag.String("sample", "", "write a cycle-indexed metrics time series (JSONL) from one instrumented mutex run per preset at -hi threads")
	sampleEvery := flag.Uint64("sample-every", 64, "time-series sampling period in device cycles")
	metricsFlags := cliflag.RegisterMetrics()
	faults := cliflag.RegisterFaults()
	spanFlags := cliflag.RegisterSpans()
	flag.Parse()
	if err := checkSampleEvery(*sampleEvery); err != nil {
		fatal(err)
	}

	var opts []hmcsim.Option
	if faults.Enabled() {
		opts = append(opts, hmcsim.WithFaults(*faults))
	}

	// The sweeps build thousands of short-lived simulators, so the live
	// endpoint carries aggregate sweep-progress counters (plus pprof and
	// expvar for the process itself) rather than per-device instruments.
	var progress func(hmcsim.MutexRun)
	if metricsFlags.Listen != "" {
		reg := hmcsim.NewMetricsRegistry()
		progress = sweepProgress(reg)
		if _, err := metricsFlags.Serve("hmc-bench", reg); err != nil {
			fatal(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var report bytes.Buffer
	if err := paper.Write(&report, *lo, *hi, *workers, progress, *faults); err != nil {
		fatal(err)
	}
	if *out == "" {
		if _, err := os.Stdout.Write(report.Bytes()); err != nil {
			fatal(err)
		}
	} else if err := os.WriteFile(*out, report.Bytes(), 0o644); err != nil {
		fatal(err)
	} else {
		fmt.Printf("wrote %s\n", *out)
	}

	if *samplePath != "" {
		if err := writeSampleSeries(*samplePath, *sampleEvery, *hi, opts); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (threads=%d, every %d cycles)\n", *samplePath, *hi, *sampleEvery)
	}

	// Span tracing rides one extra instrumented run per configuration
	// (the report's sweeps build thousands of simulators, so the flight
	// recorder attaches to a representative run instead).
	if tr := spanFlags.Tracer(); tr != nil {
		for _, cfg := range []hmcsim.Config{hmcsim.FourLink4GB(), hmcsim.EightLink8GB()} {
			if _, err := hmcsim.RunMutex(cfg, *hi, lockAddr,
				append([]hmcsim.Option{hmcsim.WithSpans(tr)}, opts...)...); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("span-traced mutex runs (threads=%d):\n", *hi)
		if err := spanFlags.Finish(os.Stdout, tr); err != nil {
			fatal(err)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // flush recent frees so the profile reflects live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmc-bench:", err)
	os.Exit(1)
}

// checkSampleEvery refuses a sampling period below one cycle: a period
// of 0 samples nothing but each preset's final snapshot.
func checkSampleEvery(n uint64) error {
	if n < 1 {
		return fmt.Errorf("-sample-every must be at least 1, got %d", n)
	}
	return nil
}

// sweepProgress registers the aggregate sweep-progress instruments on
// reg and returns the per-run hook feeding them.
func sweepProgress(reg *hmcsim.MetricsRegistry) func(hmcsim.MutexRun) {
	runs := reg.Counter("hmc_sweep_runs_completed_total")
	trylocks := reg.Counter("hmc_sweep_trylocks_total")
	stalls := reg.Counter("hmc_sweep_send_stalls_total")
	lastThreads := reg.Gauge("hmc_sweep_last_threads")
	return func(r hmcsim.MutexRun) {
		runs.Inc()
		trylocks.Add(r.Trylocks)
		stalls.Add(r.SendStalls)
		lastThreads.Set(int64(r.Threads))
	}
}

// writeSampleSeries reruns the mutex workload once per configuration with
// the full metrics stack attached — device counters, per-class latency
// histograms, power gauges, workload completion histograms — sampling the
// registry every `every` cycles into one shared JSONL stream. Each run is
// tagged with its config and thread count, and a final unconditional
// sample captures the end-of-run state (completion histograms fill after
// the last periodic sample).
func writeSampleSeries(path string, every uint64, threads int, extra []hmcsim.Option) error {
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
		opts := append([]hmcsim.Option{
			hmcsim.WithMetrics(reg),
			hmcsim.WithSampler(sm),
			hmcsim.WithPowerModel(hmcsim.NewPowerModel(hmcsim.DefaultPowerParams())),
		}, extra...)
		ss, err := hmcsim.NewSession(cfg, opts...)
		if err != nil {
			return fmt.Errorf("sample run %s: %w", cfg, err)
		}
		if _, err := ss.Mutex(threads, lockAddr); err != nil {
			return fmt.Errorf("sample run %s: %w", cfg, err)
		}
		sm.Sample(ss.Sim().Cycle())
		if err := sm.Flush(); err != nil {
			return err
		}
	}
	return f.Close()
}
