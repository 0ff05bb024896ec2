// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark prints its section of the evaluation
// artifact once, through the internal/paper renderer that also writes
// cmd/hmc-bench's report (so `go test -bench=. -benchmem | tee
// bench_output.txt` captures the same rows as the golden
// internal/paper/testdata/report.md), and then times the underlying
// operation.
//
//	Table I    -> BenchmarkTableI_CommandFlits
//	Table II   -> BenchmarkTableII_AMOEfficiency
//	Table V    -> BenchmarkTableV_MutexOps
//	Table VI   -> BenchmarkTableVI_MutexSummary
//	Figure 5   -> BenchmarkFigure5_MinLockCycles
//	Figure 6   -> BenchmarkFigure6_MaxLockCycles
//	Figure 7   -> BenchmarkFigure7_AvgLockCycles
//	Supp. A    -> BenchmarkSuppA_StreamTriad, BenchmarkSuppA_RandomAccess
//	Supp. B    -> BenchmarkSuppB_GraphBFS
//	Supp. C    -> BenchmarkSuppC_ConfigSweep
package hmcsim

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/hmccmd"
	"repro/internal/paper"
)

// lockAddr is the shared mutex block used by the paper's Algorithm 1.
const lockAddr = 0x40

// mutexSweeps runs the full 2..100-thread sweep once per configuration
// and caches it across benchmarks (Figures 5-7 and Table VI share the
// data, exactly as in the paper).
var (
	sweepOnce    sync.Once
	sweep4       MutexSweepResult
	sweep8       MutexSweepResult
	sweepWarmErr error
)

func mutexSweeps(b *testing.B) (MutexSweepResult, MutexSweepResult) {
	b.Helper()
	sweepOnce.Do(func() {
		sweep4, sweep8, sweepWarmErr = paper.Sweeps(2, 100, 1, nil)
	})
	if sweepWarmErr != nil {
		b.Fatal(sweepWarmErr)
	}
	return sweep4, sweep8
}

var printOnce sync.Map

// printDataset emits a reproduced table/figure exactly once per process.
func printDataset(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

// printSection prints one section of the evaluation artifact through
// the renderer, once per process.
func printSection(b *testing.B, key string, render func(io.Writer) error) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); loaded {
		return
	}
	if err := render(os.Stdout); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTableI_CommandFlits regenerates Table I (the Gen2 command set
// with request/response FLIT counts) and times packet encode/decode over
// the full command set.
func BenchmarkTableI_CommandFlits(b *testing.B) {
	rows := paper.TableICommands()
	printSection(b, "tableI", func(w io.Writer) error { paper.TableI(w); return nil })

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmd := rows[i%len(rows)]
		info := cmd.Info()
		r := &Rqst{Cmd: cmd, ADRS: 0x1000, TAG: 1, Payload: make([]uint64, 2*(int(info.RqstFlits)-1))}
		words, err := r.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRqst(words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_AMOEfficiency regenerates Table II (cache-based RMW vs
// HMC INC8 traffic) and times the two strategies end to end through the
// simulated device.
func BenchmarkTableII_AMOEfficiency(b *testing.B) {
	rows, err := TableII(64)
	if err != nil {
		b.Fatal(err)
	}
	printSection(b, "tableII", paper.TableII)

	s, err := New(FourLink4GB())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := BuildAtomic(hmccmd.INC8, 0, 0x80, 1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			b.Fatal(err)
		}
		for {
			s.Clock()
			if _, ok := s.Recv(0); ok {
				break
			}
		}
	}
	b.ReportMetric(float64(rows[0].TotalBytes)/float64(rows[1].TotalBytes), "traffic-ratio")
}

// BenchmarkTableV_MutexOps regenerates Table V (the CMC mutex operation
// definitions) and times a lock/unlock pair executed in-situ.
func BenchmarkTableV_MutexOps(b *testing.B) {
	printSection(b, "tableV", func(w io.Writer) error { paper.TableV(w); return nil })

	s, err := New(FourLink4GB())
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"hmc_lock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cmd := range []RqstCmd{hmccmd.CMC125, hmccmd.CMC127} {
			r, err := BuildCMC(cmd, 0, lockAddr, 1, 0, []uint64{7, 0})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Send(0, r); err != nil {
				b.Fatal(err)
			}
			for {
				s.Clock()
				if _, ok := s.Recv(0); ok {
					break
				}
			}
		}
	}
}

// BenchmarkTableVI_MutexSummary regenerates Table VI (min/max/avg cycle
// extrema across the 2..100 thread sweep for both configurations).
func BenchmarkTableVI_MutexSummary(b *testing.B) {
	s4, s8 := mutexSweeps(b)
	_, max4, _ := s4.TableVI()
	_, max8, _ := s8.TableVI()
	printSection(b, "tableVI", func(w io.Writer) error { paper.TableVI(w, s4, s8); return nil })

	b.ReportMetric(float64(max4), "4link-max-cycles")
	b.ReportMetric(float64(max8), "8link-max-cycles")
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(FourLink4GB(), 100, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_MinLockCycles regenerates the Figure 5 series.
func BenchmarkFigure5_MinLockCycles(b *testing.B) {
	s4, s8 := mutexSweeps(b)
	printSection(b, "fig5", func(w io.Writer) error { paper.Figure5(w, s4, s8); return nil })
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(FourLink4GB(), 2, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_MaxLockCycles regenerates the Figure 6 series.
func BenchmarkFigure6_MaxLockCycles(b *testing.B) {
	s4, s8 := mutexSweeps(b)
	printSection(b, "fig6", func(w io.Writer) error { paper.Figure6(w, s4, s8); return nil })
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(FourLink4GB(), 50, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_AvgLockCycles regenerates the Figure 7 series.
func BenchmarkFigure7_AvgLockCycles(b *testing.B) {
	s4, s8 := mutexSweeps(b)
	printSection(b, "fig7", func(w io.Writer) error { paper.Figure7(w, s4, s8); return nil })
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(EightLink8GB(), 50, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuppA_StreamTriad reproduces the prior-work STREAM Triad
// kernel behaviour (stride-1 across vaults) on both configurations.
func BenchmarkSuppA_StreamTriad(b *testing.B) {
	printSection(b, "suppA-stream", func(w io.Writer) error { return paper.SuppAStream(w) })
	for i := 0; i < b.N; i++ {
		if _, err := RunStream(FourLink4GB(), 8, 64, 1.25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuppA_RandomAccess reproduces the prior-work RandomAccess
// kernel, comparing the cache-less RMW baseline against Gen2 XOR16
// atomics.
func BenchmarkSuppA_RandomAccess(b *testing.B) {
	printSection(b, "suppA-gups", func(w io.Writer) error { return paper.SuppARandomAccess(w) })
	for i := 0; i < b.N; i++ {
		if _, err := RunGUPS(FourLink4GB(), GUPSAtomic, 8, 1024, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuppC_ConfigSweep reproduces the very first HMC-Sim result
// class (paper SII: "the simple application of random memory requests
// against varying device configurations") and times one replay of the
// section's random trace on 4Link-4GB with bank timing on.
func BenchmarkSuppC_ConfigSweep(b *testing.B) {
	printSection(b, "suppC-config", func(w io.Writer) error { return paper.SuppC(w) })
	trace := GenerateRandomTrace(0, 1<<26, 4096, 7)
	cfg := FourLink4GB()
	cfg.BankLatencyCycles = 1
	for i := 0; i < b.N; i++ {
		if _, err := RunReplay(cfg, 128, trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuppB_GraphBFS reproduces the CAS/CMC-offloaded BFS study the
// paper cites (SII [10]): the atomic visit halves the claim round trips
// and removes the double-claim hazard.
func BenchmarkSuppB_GraphBFS(b *testing.B) {
	printSection(b, "suppB-bfs", func(w io.Writer) error { return paper.SuppB(w) })
	for i := 0; i < b.N; i++ {
		if _, err := RunBFS(FourLink4GB(), BFSCMC, 8, 500, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}
