// Command hmc-bench regenerates every experiment of the paper in one run
// and writes a Markdown report: Tables I, II, V and VI, the Figure 5-7
// series, the supplementary kernels, and the ablations. It is the
// flag-driven twin of the repository's bench_test.go harness.
//
// Usage:
//
//	hmc-bench                 # report to stdout
//	hmc-bench -out report.md  # report to a file
//	hmc-bench -hi 50          # restrict the mutex sweep
//	hmc-bench -workers 1      # serial mutex sweep (default: GOMAXPROCS)
//	hmc-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                          # capture pprof profiles of the full run
//	hmc-bench -listen :8080   # live introspection endpoint while the
//	                          # report runs (/metrics, /debug/vars,
//	                          # /debug/pprof/)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	hmcsim "repro"
	"repro/cmcops"
	"repro/internal/hmccmd"
	"repro/internal/metricsflag"
	"repro/internal/spanflag"
)

const lockAddr = 0x40

func main() {
	out := flag.String("out", "", "write the report to this file (default stdout)")
	lo := flag.Int("lo", 2, "mutex sweep: lowest thread count")
	hi := flag.Int("hi", 100, "mutex sweep: highest thread count")
	workers := flag.Int("workers", 0, "mutex sweep worker pool size (0 = one per schedulable core, i.e. GOMAXPROCS; 1 = serial; each worker reuses one simulator session across its points)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	metricsFlags := metricsflag.Register()
	faultRate := flag.Float64("fault-rate", 0, "per-traversal link fault probability in [0,1] (0 disables injection)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection seed; the same seed reproduces the exact fault sequence")
	faultKinds := flag.String("fault-kinds", "all", "comma-separated fault kinds: crc, flip, drop, down or all")
	eventClock := flag.Bool("event-clock", true, "event-driven cycle scheduler: fast-forward provably idle spans (false = per-cycle reference engine)")
	spanFlags := spanflag.Register()
	flag.Parse()

	var opts []hmcsim.Option
	if !*eventClock {
		opts = append(opts, hmcsim.WithEventClock(false))
	}
	var plan hmcsim.FaultPlan
	if *faultRate > 0 {
		kinds, err := hmcsim.ParseFaultKinds(*faultKinds)
		if err != nil {
			fatal(err)
		}
		plan = hmcsim.FaultPlan{Rate: *faultRate, Seed: *faultSeed, Kinds: kinds}
		opts = append(opts, hmcsim.WithFaults(plan))
	}

	// The sweeps build thousands of short-lived simulators, so the live
	// endpoint carries aggregate sweep-progress counters (plus pprof and
	// expvar for the process itself) rather than per-device instruments.
	var progress func(hmcsim.MutexRun)
	if metricsFlags.Listen != "" {
		reg := hmcsim.NewMetricsRegistry()
		progress = metricsflag.SweepProgress(reg)
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

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := report(w, *lo, *hi, *workers, progress, plan, opts); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("wrote %s\n", *out)
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

func report(w io.Writer, lo, hi, workers int, progress func(hmcsim.MutexRun), plan hmcsim.FaultPlan, opts []hmcsim.Option) error {
	fmt.Fprintln(w, "# HMC-Sim 2.0 reproduction report")
	fmt.Fprintln(w)
	if plan.Enabled() {
		fmt.Fprintf(w, "All simulations run with link fault injection: %v.\n", plan)
		fmt.Fprintln(w, "Results remain functionally identical; cycle counts include retry latency.")
		fmt.Fprintln(w)
	}

	tableI(w)
	if err := tableII(w); err != nil {
		return err
	}
	tableV(w)

	four, err := hmcsim.MutexSweepWithProgress(hmcsim.FourLink4GB(), lo, hi, lockAddr, workers, progress, opts...)
	if err != nil {
		return err
	}
	eight, err := hmcsim.MutexSweepWithProgress(hmcsim.EightLink8GB(), lo, hi, lockAddr, workers, progress, opts...)
	if err != nil {
		return err
	}
	tableVI(w, four, eight)
	figures(w, four, eight)
	if err := supplementary(w, opts); err != nil {
		return err
	}
	return ablations(w, opts)
}

func tableI(w io.Writer) {
	fmt.Fprintln(w, "## Table I: Gen2 command support")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Command | Code | Request FLITs | Response FLITs |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, cmd := range hmccmd.Architected() {
		info := cmd.Info()
		if info.Class == hmccmd.ClassFlow {
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d |\n", info.Name, info.Code, info.RqstFlits, info.RspFlits)
	}
	fmt.Fprintln(w)
}

func tableII(w io.Writer) error {
	rows, err := hmcsim.TableII(64)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Table II: AMO efficiency")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| AMO Type | Request Structure | FLITs | Total Bytes (paper's 128 B FLIT) |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s | %d |\n", r.AMOType, r.Structure, r.FlitsLabel, r.TotalBytes)
	}
	fmt.Fprintln(w)
	return nil
}

func tableV(w io.Writer) {
	fmt.Fprintln(w, "## Table V: CMC mutex operations")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Operation | Command Enum | Request Length | Response Command | Response Length |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, op := range cmcops.MutexOps() {
		d := op.Register()
		fmt.Fprintf(w, "| %s | CMC%d | %d FLITS | %v | %d |\n", d.OpName, d.Cmd, d.RqstLen, d.RspCmd, d.RspLen)
	}
	fmt.Fprintln(w)
}

func tableVI(w io.Writer, four, eight hmcsim.MutexSweepResult) {
	fmt.Fprintln(w, "## Table VI: mutex sweep extrema")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Device | Min Cycle Count | Max Cycle Count | Avg Cycle Count |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, sweep := range []hmcsim.MutexSweepResult{four, eight} {
		minC, maxC, maxAvg := sweep.TableVI()
		fmt.Fprintf(w, "| %v | %d | %d | %.2f |\n", sweep.Config, minC, maxC, maxAvg)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper: 4Link-4GB 6 / 392 / 226.48; 8Link-8GB 6 / 387 / 221.48.")
	fmt.Fprintln(w)
}

func figures(w io.Writer, four, eight hmcsim.MutexSweepResult) {
	specs := []struct {
		n      int
		title  string
		metric func(hmcsim.MutexRun) float64
	}{
		{5, "Minimum Lock Cycles", func(r hmcsim.MutexRun) float64 { return float64(r.Min) }},
		{6, "Maximum Lock Cycles", func(r hmcsim.MutexRun) float64 { return float64(r.Max) }},
		{7, "Average Lock Cycles", func(r hmcsim.MutexRun) float64 { return r.Avg }},
	}
	for _, spec := range specs {
		fmt.Fprintf(w, "## Figure %d: %s\n\n", spec.n, spec.title)
		fmt.Fprintln(w, "| Threads | 4Link-4GB | 8Link-8GB |")
		fmt.Fprintln(w, "|---|---|---|")
		for i := range four.Runs {
			t := four.Runs[i].Threads
			if t%10 == 0 || t == 2 || i == len(four.Runs)-1 {
				fmt.Fprintf(w, "| %d | %.2f | %.2f |\n", t, spec.metric(four.Runs[i]), spec.metric(eight.Runs[i]))
			}
		}
		fmt.Fprintln(w)
	}
}

func supplementary(w io.Writer, opts []hmcsim.Option) error {
	fmt.Fprintln(w, "## Supplementary kernels")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Kernel | Config | Cycles | Note |")
	fmt.Fprintln(w, "|---|---|---|---|")
	st, err := hmcsim.RunStream(hmcsim.FourLink4GB(), 16, 256, 1.25, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| STREAM Triad (16 thr) | 4Link-4GB | %d | %.1f bytes/cycle |\n", st.Cycles, st.BytesPerCycle)
	base, err := hmcsim.RunGUPS(hmcsim.FourLink4GB(), hmcsim.GUPSBaseline, 16, 4096, 1600, opts...)
	if err != nil {
		return err
	}
	amo, err := hmcsim.RunGUPS(hmcsim.FourLink4GB(), hmcsim.GUPSAtomic, 16, 4096, 1600, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| RandomAccess baseline | 4Link-4GB | %d | %d FLITs |\n", base.Cycles, base.Flits)
	fmt.Fprintf(w, "| RandomAccess XOR16 | 4Link-4GB | %d | %.2fx speedup |\n", amo.Cycles, float64(base.Cycles)/float64(amo.Cycles))
	bb, err := hmcsim.RunBFS(hmcsim.FourLink4GB(), hmcsim.BFSBaseline, 16, 2000, 4, 99, opts...)
	if err != nil {
		return err
	}
	bc, err := hmcsim.RunBFS(hmcsim.FourLink4GB(), hmcsim.BFSCMC, 16, 2000, 4, 99, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| BFS baseline | 4Link-4GB | %d | %d double claims |\n", bb.Cycles, bb.DoubleClaims)
	fmt.Fprintf(w, "| BFS hmc_visit | 4Link-4GB | %d | %.2fx speedup, 0 double claims |\n", bc.Cycles, float64(bb.Cycles)/float64(bc.Cycles))
	fmt.Fprintln(w)
	return nil
}

func ablations(w io.Writer, opts []hmcsim.Option) error {
	fmt.Fprintln(w, "## Ablations")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Knob | Setting | 4Link max | 8Link max |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, flits := range []int{8, 26, 256} {
		cfg4 := hmcsim.FourLink4GB()
		cfg4.LinkFlitsPerCycle = flits
		cfg8 := hmcsim.EightLink8GB()
		cfg8.LinkFlitsPerCycle = flits
		r4, err := hmcsim.RunMutex(cfg4, 100, lockAddr, opts...)
		if err != nil {
			return err
		}
		r8, err := hmcsim.RunMutex(cfg8, 100, lockAddr, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| link FLITs/cycle | %d | %d | %d |\n", flits, r4.Max, r8.Max)
	}
	spin, err := hmcsim.RunMutex(hmcsim.FourLink4GB(), 64, lockAddr, opts...)
	if err != nil {
		return err
	}
	ticket, err := hmcsim.RunTicketMutex(hmcsim.FourLink4GB(), 64, lockAddr, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Spin vs ticket at 64 threads: spin max %d (unfair), ticket max %d with %d inversions.\n",
		spin.Max, ticket.Max, ticket.Inversions)
	return nil
}
