// Command hmcsim is the general simulation driver: it builds a device
// configuration, optionally loads CMC operations (compiled-in by name or
// from .cmc script files), runs a workload, and reports statistics,
// traces, span attribution and energy. It is the one CLI that runs a
// single simulation; hmc-trace reads what it writes.
//
// Usage examples:
//
//	hmcsim -print-commands                 # Table I: the Gen2 command set
//	hmcsim -print-cmc                      # registered CMC operations
//	hmcsim -config 8link8gb -workload stream -threads 32
//	hmcsim -workload mutex -threads 64 -trace trace.jsonl -trace-level cmc+latency
//	hmcsim -workload mutex -threads 32 -spans -span-out spans.json
//	hmcsim -workload gups -gups-mode amo -threads 16 -power
//	hmcsim -cmc-script ops/fetchadd.cmc -print-cmc
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	hmcsim "repro"
	"repro/internal/cliflag"
	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/sim"
)

func main() {
	cfgName := flag.String("config", "4link4gb", "device configuration: 4link4gb, 8link8gb or 2gbdev (case and separators ignored)")
	devices := flag.Int("devices", 1, "number of chained devices")
	topoName := flag.String("topo", "single", "multi-device topology: single, chain, star or ring")
	workload := flag.String("workload", "", "workload to run: mutex, stream, gups, bfs, replay or rwlock")
	threads := flag.Int("threads", 16, "simulated thread count")
	tracePath := flag.String("trace", "", "write a JSONL trace to this file")
	traceLevel := flag.String("trace-level", "all", "trace levels (e.g. cmc+latency, all, none)")
	usePower := flag.Bool("power", false, "enable the power extension and report energy")
	showStats := flag.Bool("stats", false, "print per-device utilization reports after the run")
	printCommands := flag.Bool("print-commands", false, "print the Gen2 command table (Table I) and exit")
	printCMC := flag.Bool("print-cmc", false, "print the registered CMC operations and exit")
	var cmcScripts stringList
	flag.Var(&cmcScripts, "cmc-script", "load a .cmc operation script (repeatable)")
	gupsMode := flag.String("gups-mode", "amo", "gups mode: amo or baseline")
	bfsMode := flag.String("bfs-mode", "cmc", "bfs mode: cmc or baseline")
	blocks := flag.Uint64("blocks", 512, "stream: 64-byte blocks per array")
	updates := flag.Uint64("updates", 4096, "gups: total updates")
	vertices := flag.Int("vertices", 2000, "bfs: vertex count")
	readers := flag.Int("readers", 12, "rwlock: reader thread count")
	writers := flag.Int("writers", 4, "rwlock: writer thread count")
	replayFile := flag.String("replay-file", "", "replay: request trace file")
	replayPattern := flag.String("replay-pattern", "stride", "replay: generated pattern when no file is given (stride or random)")
	replayOps := flag.Int("replay-ops", 1024, "replay: generated request count")
	faults := cliflag.RegisterFaults()
	spanFlags := cliflag.RegisterSpans()
	flag.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"devices", *devices}, {"vertices", *vertices}, {"replay-ops", *replayOps}} {
		if f.v < 1 {
			fatal(fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	if err := checkMode("gups-mode", *gupsMode); err != nil {
		fatal(err)
	}
	if err := checkMode("bfs-mode", *bfsMode); err != nil {
		fatal(err)
	}

	if *printCommands {
		printCommandTable()
		return
	}

	cfg, err := config.ByName(*cfgName)
	if err != nil {
		fatal(err)
	}

	// Script-loaded CMC operations register into the process-wide
	// registry so every simulator (including workload-internal ones) can
	// bind them.
	for _, path := range cmcScripts {
		prog, err := hmcsim.LoadCMCScriptFile(path)
		if err != nil {
			fatal(err)
		}
		name := prog.Str()
		hmcsim.RegisterCMCFactory(name+"@"+path, func() hmcsim.CMCOperation { return prog })
		fmt.Printf("loaded CMC script %s (op %s, command code %d)\n", path, name, prog.Register().Cmd)
	}

	if *printCMC {
		fmt.Println("registered CMC operations:")
		for _, name := range hmcsim.CMCNames() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	if *workload == "" {
		fmt.Println("nothing to do: pass -workload, -print-commands or -print-cmc")
		return
	}

	level, err := hmcsim.ParseTraceLevel(*traceLevel)
	if err != nil {
		fatal(err)
	}
	var opts []hmcsim.Option
	var traceFile *os.File
	var jsonl interface {
		Flush() error
	}
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer traceFile.Close()
		tr := hmcsim.NewJSONLTracer(traceFile, level)
		jsonl = tr
		opts = append(opts, hmcsim.WithTracer(tr))
	}
	var pm *hmcsim.PowerModel
	if *usePower {
		pm = hmcsim.NewPowerModel(hmcsim.DefaultPowerParams())
		opts = append(opts, hmcsim.WithPowerModel(pm))
	}
	if faults.Rate > 0 {
		opts = append(opts, hmcsim.WithFaults(*faults))
		fmt.Printf("fault injection: %v\n", *faults)
	}
	spanTracer := spanFlags.Tracer()
	if spanTracer != nil {
		opts = append(opts, hmcsim.WithSpans(spanTracer))
	}
	if *devices > 1 || *topoName != "single" {
		kind, err := topoKind(*topoName)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, hmcsim.WithDevices(*devices, kind))
	}

	// One session runs the workload and keeps the simulator for -stats.
	ss, err := hmcsim.NewSession(cfg, opts...)
	if err != nil {
		fatal(err)
	}
	switch *workload {
	case "mutex":
		runMutex(ss, *threads)
	case "stream":
		runStream(ss, *threads, *blocks)
	case "gups":
		runGUPS(ss, *gupsMode, *threads, *updates)
	case "bfs":
		runBFS(ss, *bfsMode, *threads, *vertices)
	case "replay":
		runReplay(ss, *threads, *replayFile, *replayPattern, *replayOps)
	case "rwlock":
		runRWLock(ss, *readers, *writers)
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	if pm != nil {
		fmt.Printf("energy: %v\n", pm)
	}
	if err := spanFlags.Finish(os.Stdout, spanTracer); err != nil {
		fatal(err)
	}
	if *showStats {
		for _, d := range ss.Sim().Devices() {
			fmt.Print(d.BuildReport())
		}
	}

	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
}

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcsim:", err)
	os.Exit(1)
}

// modeValues lists the values each mode flag accepts.
var modeValues = map[string][]string{
	"gups-mode": {"amo", "baseline"},
	"bfs-mode":  {"cmc", "baseline"},
}

// checkMode reports an error naming the values mode flag name accepts,
// unless v is one of them.
func checkMode(name, v string) error {
	if slices.Contains(modeValues[name], v) {
		return nil
	}
	return fmt.Errorf("-%s must be %s, got %q", name, strings.Join(modeValues[name], " or "), v)
}

func topoKind(name string) (sim.Kind, error) {
	return sim.ParseKind(name)
}

func printCommandTable() {
	fmt.Println("HMC Gen2 command set (request/response lengths in FLITs):")
	fmt.Printf("%-12s %-6s %-6s %-6s %-14s\n", "Command", "Code", "Rqst", "Rsp", "Class")
	for code := 0; code < 128; code++ {
		cmd, ok := hmccmd.FromCode(uint8(code))
		if !ok {
			continue
		}
		info := cmd.Info()
		fmt.Printf("%-12s %-6d %-6d %-6d %-14v\n", info.Name, info.Code, info.RqstFlits, info.RspFlits, info.Class)
	}
}

func runMutex(ss *hmcsim.Session, threads int) {
	run, err := ss.Mutex(threads, 0x40)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mutex %v threads=%d: min=%d max=%d avg=%.2f trylocks=%d stalls=%d\n",
		ss.Sim().Config(), run.Threads, run.Min, run.Max, run.Avg, run.Trylocks, run.SendStalls)
}

func runStream(ss *hmcsim.Session, threads int, blocks uint64) {
	r, err := ss.Stream(threads, blocks, 1.25)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stream %v threads=%d blocks=%d: cycles=%d bytes/cycle=%.2f bandwidth=%.2f GB/s\n",
		ss.Sim().Config(), r.Threads, blocks, r.Cycles, r.BytesPerCycle, r.BandwidthGBs)
}

func runGUPS(ss *hmcsim.Session, mode string, threads int, updates uint64) {
	m := hmcsim.GUPSAtomic
	if mode == "baseline" {
		m = hmcsim.GUPSBaseline
	}
	r, err := ss.GUPS(m, threads, 4096, updates)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gups %v mode=%v threads=%d updates=%d: cycles=%d flits=%d updates/kcycle=%.2f\n",
		ss.Sim().Config(), r.Mode, r.Threads, r.Updates, r.Cycles, r.Flits, r.UpdatesPerKCycle)
}

func runBFS(ss *hmcsim.Session, mode string, threads, vertices int) {
	m := hmcsim.BFSCMC
	if mode == "baseline" {
		m = hmcsim.BFSBaseline
	}
	r, err := ss.BFS(m, threads, vertices, 4, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bfs %v mode=%v threads=%d vertices=%d edges=%d: cycles=%d flits=%d doubleclaims=%d\n",
		ss.Sim().Config(), r.Mode, r.Threads, r.Vertices, r.Edges, r.Cycles, r.Flits, r.DoubleClaims)
}

func runRWLock(ss *hmcsim.Session, readers, writers int) {
	r, err := ss.RWLock(readers, writers, 5)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rwlock %v readers=%d writers=%d: cycles=%d counter=%d acquisitions=%d+%d retries=%d\n",
		ss.Sim().Config(), r.Readers, r.Writers, r.Cycles, r.Counter, r.ReaderAcqs, r.WriterAcqs, r.Retries)
}

func runReplay(ss *hmcsim.Session, threads int, file, pattern string, n int) {
	var ops []hmcsim.ReplayOp
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		ops, err = hmcsim.ParseRequestTrace(f)
		if err != nil {
			fatal(err)
		}
	case pattern == "stride":
		ops = hmcsim.GenerateStrideTrace(0, n)
	case pattern == "random":
		ops = hmcsim.GenerateRandomTrace(0, 1<<24, n, 1)
	default:
		fatal(fmt.Errorf("unknown replay pattern %q", pattern))
	}
	r, err := ss.Replay(threads, ops)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay %v threads=%d ops=%d: cycles=%d ops/cycle=%.3f latency[%v]\n",
		ss.Sim().Config(), r.Threads, r.Ops, r.Cycles, r.OpsPerCycle, r.Latency.String())
}
