// Package paper renders the reproduction's evaluation artifact as
// Markdown: the paper's Tables I, II, V and VI, the Figure 5-7 series,
// and the §II prior-result kernels (Supp. A-C), each from one fixed
// parameter set. It is the only formatter of those rows: cmd/hmc-bench
// writes the whole report through Write, and the root package's
// Table/Figure/Supp benchmarks print their own section through the
// section functions. testdata/report.md is the fault-free report, and
// TestReportGolden pins it byte for byte.
package paper

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/cmcops"
	"repro/internal/cachemodel"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/sim"
	"repro/internal/workload"
)

// lockAddr is the shared mutex block of the paper's Algorithm 1.
const lockAddr = 0x40

// Write renders the whole report. The mutex sweep covers lo..hi threads
// on both presets with the given worker count (<= 0 means one per
// schedulable core); progress, when non-nil, is called from the sweep
// workers once per finished point. An enabled fault plan runs every
// simulation under link fault injection, and a banner says so. The
// sweep runs before anything is written, so a bad thread range leaves w
// untouched.
func Write(w io.Writer, lo, hi, workers int, progress func(workload.MutexRun), plan fault.Plan) error {
	var opts []sim.Option
	if plan.Enabled() {
		opts = append(opts, sim.WithFaults(plan))
	}
	four, eight, err := Sweeps(lo, hi, workers, progress, opts...)
	if err != nil {
		return err
	}
	fmt.Fprint(w, "# HMC-Sim 2.0 reproduction report\n")
	if plan.Enabled() {
		fmt.Fprintf(w, "\nAll simulations run with link fault injection: %v.\n", plan)
		fmt.Fprint(w, "Results remain functionally identical; cycle counts include retry latency.\n")
	}
	TableI(w)
	if err := TableII(w); err != nil {
		return err
	}
	TableV(w)
	TableVI(w, four, eight)
	Figure5(w, four, eight)
	Figure6(w, four, eight)
	Figure7(w, four, eight)
	for _, section := range []func(io.Writer, ...sim.Option) error{SuppAStream, SuppARandomAccess, SuppB, SuppC} {
		if err := section(w, opts...); err != nil {
			return err
		}
	}
	return nil
}

// Sweeps runs the paper's mutex sweep over lo..hi threads on the
// 4Link-4GB and 8Link-8GB presets, the data behind Table VI and
// Figures 5-7.
func Sweeps(lo, hi, workers int, progress func(workload.MutexRun), opts ...sim.Option) (four, eight workload.MutexSweepResult, err error) {
	four, err = workload.MutexSweepWithProgress(config.FourLink4GB(), lo, hi, lockAddr, workers, progress, opts...)
	if err != nil {
		return four, eight, err
	}
	eight, err = workload.MutexSweepWithProgress(config.EightLink8GB(), lo, hi, lockAddr, workers, progress, opts...)
	return four, eight, err
}

// heading opens a section: a blank line, its title and the header rows
// of its table.
func heading(w io.Writer, title string, columns ...string) {
	fmt.Fprintf(w, "\n## %s\n\n| %s |\n|%s\n", title, strings.Join(columns, " | "), strings.Repeat("---|", len(columns)))
}

// TableICommands returns the 28 Gen2 commands of the paper's Table I in
// the paper's row order.
func TableICommands() []hmccmd.Rqst {
	return []hmccmd.Rqst{
		hmccmd.RD256, hmccmd.WR256, hmccmd.PWR256,
		hmccmd.TWOADD8, hmccmd.ADD16, hmccmd.P2ADD8, hmccmd.PADD16,
		hmccmd.TWOADDS8R, hmccmd.ADDS16R, hmccmd.INC8, hmccmd.PINC8,
		hmccmd.XOR16, hmccmd.OR16, hmccmd.NOR16, hmccmd.AND16, hmccmd.NAND16,
		hmccmd.CASGT8, hmccmd.CASGT16, hmccmd.CASLT8, hmccmd.CASLT16,
		hmccmd.CASEQ8, hmccmd.CASZERO16, hmccmd.EQ8, hmccmd.EQ16,
		hmccmd.BWR, hmccmd.PBWR, hmccmd.BWR8R, hmccmd.SWAP16,
	}
}

// TableI renders Table I: the Gen2 commands HMC-Sim 2.0 adds, with their
// request and response lengths.
func TableI(w io.Writer) {
	heading(w, "Table I: Gen2 command support", "Command", "Code", "Request FLITs", "Response FLITs")
	for _, cmd := range TableICommands() {
		info := cmd.Info()
		fmt.Fprintf(w, "| %s | %d | %d | %d |\n", info.Name, info.Code, info.RqstFlits, info.RspFlits)
	}
}

// TableII renders Table II: an 8-byte increment as a cache-line
// read-modify-write against one HMC INC8, with byte totals in the
// paper's 128-byte FLIT convention and in the specification's 16 bytes.
func TableII(w io.Writer) error {
	rows, err := cachemodel.TableII(64)
	if err != nil {
		return err
	}
	heading(w, "Table II: AMO efficiency (64-byte cache line)", "AMO Type", "Request Structure", "FLITs",
		"FLIT Count", "Total Bytes (128 B FLIT, paper)", "Total Bytes (16 B FLIT, spec)")
	for _, r := range rows {
		flits := r.TotalBytes / cachemodel.PaperFlitBytes
		fmt.Fprintf(w, "| %s | %s | %s | %d | %d | %d |\n", r.AMOType, r.Structure, r.FlitsLabel, flits, r.TotalBytes, flits*16)
	}
	fmt.Fprintf(w, "\nTraffic ratio: %dx.\n", rows[0].TotalBytes/rows[1].TotalBytes)
	return nil
}

// TableV renders Table V: the CMC mutex operation definitions.
func TableV(w io.Writer) {
	heading(w, "Table V: CMC mutex operations", "Operation", "Command Enum", "Request Length", "Response Command", "Response Length")
	for _, op := range cmcops.MutexOps() {
		d := op.Register()
		fmt.Fprintf(w, "| %s | CMC%d | %d FLITS | %v | %d |\n", d.OpName, d.Cmd, d.RqstLen, d.RspCmd, d.RspLen)
	}
}

// TableVI renders Table VI: the extrema of each preset's sweep, with the
// paper's values for reference.
func TableVI(w io.Writer, four, eight workload.MutexSweepResult) {
	heading(w, "Table VI: mutex sweep extrema", "Device", "Min Cycle Count", "Max Cycle Count", "Avg Cycle Count")
	for _, sweep := range []workload.MutexSweepResult{four, eight} {
		minC, maxC, maxAvg := sweep.TableVI()
		fmt.Fprintf(w, "| %v | %d | %d | %.2f |\n", sweep.Config, minC, maxC, maxAvg)
	}
	fmt.Fprint(w, "\nPaper: 4Link-4GB 6 / 392 / 226.48; 8Link-8GB 6 / 387 / 221.48.\n")
}

// Figure5 renders the Figure 5 series: MIN_CYCLE at every swept thread
// count.
func Figure5(w io.Writer, four, eight workload.MutexSweepResult) {
	figure(w, 5, "Minimum Lock Cycles", four, eight, func(r workload.MutexRun) string { return strconv.FormatUint(r.Min, 10) })
}

// Figure6 renders the Figure 6 series: MAX_CYCLE at every swept thread
// count.
func Figure6(w io.Writer, four, eight workload.MutexSweepResult) {
	figure(w, 6, "Maximum Lock Cycles", four, eight, func(r workload.MutexRun) string { return strconv.FormatUint(r.Max, 10) })
}

// Figure7 renders the Figure 7 series: AVG_CYCLE at every swept thread
// count.
func Figure7(w io.Writer, four, eight workload.MutexSweepResult) {
	figure(w, 7, "Average Lock Cycles", four, eight, func(r workload.MutexRun) string { return strconv.FormatFloat(r.Avg, 'f', 2, 64) })
}

func figure(w io.Writer, n int, title string, four, eight workload.MutexSweepResult, cell func(workload.MutexRun) string) {
	heading(w, fmt.Sprintf("Figure %d: %s", n, title), "Threads", four.Config.String(), eight.Config.String())
	for i, r := range four.Runs {
		fmt.Fprintf(w, "| %d | %s | %s |\n", r.Threads, cell(r), cell(eight.Runs[i]))
	}
}

// presets are the paper's two evaluation devices.
func presets() []config.Config {
	return []config.Config{config.FourLink4GB(), config.EightLink8GB()}
}

// SuppAStream renders the prior-work STREAM Triad kernel (stride-1) over
// 256-block arrays at 1, 8 and 32 threads on both presets.
func SuppAStream(w io.Writer, opts ...sim.Option) error {
	heading(w, "Supp. A: STREAM Triad (stride-1, 256-block arrays)", "Device", "Threads", "Cycles", "Bytes/cycle", "GB/s at 1.25 GHz")
	for _, cfg := range presets() {
		for _, threads := range []int{1, 8, 32} {
			r, err := workload.RunStream(cfg, threads, 256, 1.25, opts...)
			if err != nil {
				return fmt.Errorf("stream %v threads=%d: %w", cfg, threads, err)
			}
			fmt.Fprintf(w, "| %v | %d | %d | %.2f | %.2f |\n", cfg, threads, r.Cycles, r.BytesPerCycle, r.BandwidthGBs)
		}
	}
	return nil
}

// SuppARandomAccess renders the prior-work HPCC RandomAccess kernel:
// host read-modify-write against in-situ XOR16 atomics, 1600 updates by
// 16 threads over a 4096-entry table, on both presets.
func SuppARandomAccess(w io.Writer, opts ...sim.Option) error {
	heading(w, "Supp. A: HPCC RandomAccess (16 threads, 4096-entry table, 1600 updates)",
		"Device", "Mode", "Cycles", "FLITs", "Updates/kcycle", "Speedup")
	for _, cfg := range presets() {
		var base workload.GUPSResult
		for _, mode := range []workload.GUPSMode{workload.GUPSBaseline, workload.GUPSAtomic} {
			r, err := workload.RunGUPS(cfg, mode, 16, 4096, 1600, opts...)
			if err != nil {
				return fmt.Errorf("gups %v %v: %w", cfg, mode, err)
			}
			if mode == workload.GUPSBaseline {
				base = r
			}
			fmt.Fprintf(w, "| %v | %v | %d | %d | %.2f | %.2fx |\n",
				cfg, mode, r.Cycles, r.Flits, r.UpdatesPerKCycle, float64(base.Cycles)/float64(r.Cycles))
		}
	}
	return nil
}

// SuppB renders the CAS/CMC-offloaded BFS study the paper cites (§II
// [10]): 16 threads traverse a 2000-vertex, degree-4 random graph (seed
// 99) on 4Link-4GB with a host check-then-write claim and with the
// atomic hmc_visit operation.
func SuppB(w io.Writer, opts ...sim.Option) error {
	heading(w, "Supp. B: graph BFS with CMC visit offload (4Link-4GB, 16 threads, 2000 vertices, degree 4, seed 99)",
		"Mode", "Cycles", "FLITs", "Double claims", "Speedup")
	var base workload.BFSResult
	for _, mode := range []workload.BFSMode{workload.BFSBaseline, workload.BFSCMC} {
		r, err := workload.RunBFS(config.FourLink4GB(), mode, 16, 2000, 4, 99, opts...)
		if err != nil {
			return fmt.Errorf("bfs %v: %w", mode, err)
		}
		if mode == workload.BFSBaseline {
			base = r
		}
		fmt.Fprintf(w, "| %v | %d | %d | %d | %.2fx |\n", mode, r.Cycles, r.Flits, r.DoubleClaims, float64(base.Cycles)/float64(r.Cycles))
	}
	return nil
}

// SuppC renders the first HMC-Sim result class (§II: random memory
// requests against varying device configurations): one 4096-op random
// trace (seed 7) replayed by 128 threads on three organizations, with
// bank timing on so the vault and bank counts matter.
func SuppC(w io.Writer, opts ...sim.Option) error {
	trace := workload.GenerateRandomTrace(0, 1<<26, 4096, 7)
	heading(w, "Supp. C: random requests vs device configuration (4096 ops, 128 threads, bank timing on)",
		"Device", "Vaults", "Banks", "Cycles", "Ops/cycle", "Latency")
	for _, cfg := range []config.Config{config.TwoGBDev(), config.FourLink4GB(), config.EightLink8GB()} {
		cfg.BankLatencyCycles = 1
		r, err := workload.RunReplay(cfg, 128, trace, opts...)
		if err != nil {
			return fmt.Errorf("replay %v: %w", cfg, err)
		}
		fmt.Fprintf(w, "| %v | %d | %d | %d | %.3f | %s |\n",
			cfg, cfg.Vaults, cfg.Vaults*cfg.BanksPerVault, r.Cycles, r.OpsPerCycle, r.Latency.String())
	}
	return nil
}
