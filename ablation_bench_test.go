// Ablation benchmarks for the design choices DESIGN.md calls out: the
// per-link serialization budget (the model's one free parameter), the
// paper's queue depths, the optional bank-timing extension, and the
// expressive-locks extension. Each prints its sweep once so
// bench_output.txt carries the data.
package hmcsim

import (
	"fmt"
	"testing"

	"repro/internal/hmccmd"
)

// BenchmarkAblation_LinkSerialization sweeps LinkFlitsPerCycle and shows
// how it positions the 4Link/8Link divergence: small budgets split the
// configurations everywhere, the calibrated default (26) reproduces the
// paper's identical-through-50-threads behaviour, and an effectively
// unlimited budget never diverges.
func BenchmarkAblation_LinkSerialization(b *testing.B) {
	text := "\n=== Ablation: per-link FLIT budget vs 4Link/8Link divergence (100 threads) ===\n"
	text += fmt.Sprintf("%-10s %-12s %-12s %-12s %-12s\n", "FLITs/cyc", "4L max", "8L max", "4L avg", "8L avg")
	for _, flits := range []int{8, 16, 26, 256} {
		cfg4 := FourLink4GB()
		cfg4.LinkFlitsPerCycle = flits
		cfg8 := EightLink8GB()
		cfg8.LinkFlitsPerCycle = flits
		r4, err := RunMutex(cfg4, 100, lockAddr)
		if err != nil {
			b.Fatal(err)
		}
		r8, err := RunMutex(cfg8, 100, lockAddr)
		if err != nil {
			b.Fatal(err)
		}
		text += fmt.Sprintf("%-10d %-12d %-12d %-12.2f %-12.2f\n", flits, r4.Max, r8.Max, r4.Avg, r8.Avg)
	}
	printDataset("ablation-linkser", text)
	cfg := FourLink4GB()
	cfg.LinkFlitsPerCycle = 8
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(cfg, 100, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_QueueDepth sweeps the vault request queue depth (the
// paper's 64-slot parameter) under the 100-thread hot spot.
func BenchmarkAblation_QueueDepth(b *testing.B) {
	text := "\n=== Ablation: vault request queue depth (4Link-4GB, 100 threads) ===\n"
	text += fmt.Sprintf("%-8s %-10s %-10s %-10s\n", "Depth", "Min", "Max", "Avg")
	for _, depth := range []int{8, 16, 32, 64, 128} {
		cfg := FourLink4GB()
		cfg.QueueDepth = depth
		r, err := RunMutex(cfg, 100, lockAddr)
		if err != nil {
			b.Fatal(err)
		}
		text += fmt.Sprintf("%-8d %-10d %-10d %-10.2f\n", depth, r.Min, r.Max, r.Avg)
	}
	printDataset("ablation-queue", text)
	cfg := FourLink4GB()
	cfg.QueueDepth = 8
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(cfg, 100, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_BankLatency exercises the optional bank-timing
// extension: with positive bank latency the hot-spot mutex serializes on
// the lock's bank, and the stride-1 STREAM kernel starts seeing conflicts
// only within vaults.
func BenchmarkAblation_BankLatency(b *testing.B) {
	text := "\n=== Ablation: bank latency extension (BankLatencyCycles) ===\n"
	text += fmt.Sprintf("%-8s %-18s %-18s\n", "Latency", "Mutex max (32 thr)", "Stream cycles (8 thr)")
	for _, lat := range []int{0, 1, 2, 4} {
		cfg := FourLink4GB()
		cfg.BankLatencyCycles = lat
		mu, err := RunMutex(cfg, 32, lockAddr)
		if err != nil {
			b.Fatal(err)
		}
		st, err := RunStream(cfg, 8, 128, 1.25)
		if err != nil {
			b.Fatal(err)
		}
		text += fmt.Sprintf("%-8d %-18d %-18d\n", lat, mu.Max, st.Cycles)
	}
	printDataset("ablation-bank", text)
	cfg := FourLink4GB()
	cfg.BankLatencyCycles = 2
	for i := 0; i < b.N; i++ {
		if _, err := RunMutex(cfg, 32, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RowBuffer exercises the open-page extension: a
// same-row stream vs a row-thrashing stream through one bank, across row
// miss penalties.
func BenchmarkAblation_RowBuffer(b *testing.B) {
	run := func(penalty int, thrash bool) uint64 {
		cfg := FourLink4GB()
		cfg.BankLatencyCycles = 1
		cfg.RowMissPenaltyCycles = penalty
		rowBits := uint(cfg.BankBits() + cfg.VaultBits() + cfg.OffsetBits())
		ops := make([]ReplayOp, 64)
		for i := range ops {
			row := uint64(1)
			if thrash && i%2 == 1 {
				row = 2
			}
			ops[i] = ReplayOp{Cmd: rd16Cmd(), Addr: row << rowBits, Bytes: 16}
		}
		r, err := RunReplay(cfg, 4, ops)
		if err != nil {
			b.Fatal(err)
		}
		return r.Cycles
	}
	text := "\n=== Ablation: open-row model (row-miss penalty, one bank, 64 reads) ===\n"
	text += fmt.Sprintf("%-10s %-14s %-14s\n", "Penalty", "Same-row", "Row-thrash")
	for _, p := range []int{0, 2, 4, 8} {
		text += fmt.Sprintf("%-10d %-14d %-14d\n", p, run(p, false), run(p, true))
	}
	printDataset("ablation-row", text)
	for i := 0; i < b.N; i++ {
		run(4, true)
	}
}

func rd16Cmd() RqstCmd { return hmccmd.RD16 }

// BenchmarkAblation_TicketVsSpin compares the paper's spin mutex against
// the ticket-lock extension (the "more expressive locks" of §V-A):
// similar serialization cost, structurally zero fairness inversions.
func BenchmarkAblation_TicketVsSpin(b *testing.B) {
	text := "\n=== Ablation: spin mutex (paper) vs ticket lock (extension), 4Link-4GB ===\n"
	text += fmt.Sprintf("%-8s %-22s %-28s\n", "Threads", "Spin max/avg", "Ticket max/avg/inversions")
	for _, n := range []int{8, 32, 64} {
		spin, err := RunMutex(FourLink4GB(), n, lockAddr)
		if err != nil {
			b.Fatal(err)
		}
		ticket, err := RunTicketMutex(FourLink4GB(), n, lockAddr)
		if err != nil {
			b.Fatal(err)
		}
		text += fmt.Sprintf("%-8d %6d / %-12.2f %6d / %-8.2f / %d\n",
			n, spin.Max, spin.Avg, ticket.Max, ticket.Avg, ticket.Inversions)
	}
	printDataset("ablation-ticket", text)
	for i := 0; i < b.N; i++ {
		if _, err := RunTicketMutex(FourLink4GB(), 32, lockAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_PipelineDepth sweeps the host pipeline width against
// achieved read bandwidth: the latency-hiding curve that motivates
// bandwidth-optimized memory parts (paper SI), flattening where the link
// serialization budget saturates.
func BenchmarkAblation_PipelineDepth(b *testing.B) {
	text := "\n=== Ablation: host pipeline depth vs achieved read bandwidth (4 threads) ===\n"
	text += fmt.Sprintf("%-8s %-14s %-14s\n", "Width", "4L bytes/cyc", "8L bytes/cyc")
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		r4, err := RunBandwidthProbe(FourLink4GB(), 4, w, 256)
		if err != nil {
			b.Fatal(err)
		}
		r8, err := RunBandwidthProbe(EightLink8GB(), 4, w, 256)
		if err != nil {
			b.Fatal(err)
		}
		text += fmt.Sprintf("%-8d %-14.1f %-14.1f\n", w, r4.BytesPerCycle, r8.BytesPerCycle)
	}
	printDataset("ablation-pipeline", text)
	for i := 0; i < b.N; i++ {
		if _, err := RunBandwidthProbe(FourLink4GB(), 4, 16, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ScriptVsCompiled measures the interpretation overhead
// of the .cmc script path against the compiled mutex operations by
// driving the same lock/unlock sequence through each.
func BenchmarkAblation_ScriptVsCompiled(b *testing.B) {
	scriptSrc := `
op bench_lock
rqst CMC107
rqst_len 2
rsp_len 2
rsp_cmd WR_RS

exec:
    load.lo
    jnz held
    push 1
    store.lo
    arg 0
    store.hi
    push 1
    ret 0
    halt
held:
    push 0
    ret 0
`
	prog, err := ParseCMCScript(scriptSrc)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(FourLink4GB())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.LoadCMC("hmc_lock"); err != nil {
		b.Fatal(err)
	}
	if err := s.LoadCMC("hmc_unlock"); err != nil {
		b.Fatal(err)
	}
	if err := s.LoadCMCOp(prog); err != nil {
		b.Fatal(err)
	}
	drive := func(cmd RqstCmd, addr uint64) {
		r, err := BuildCMC(cmd, 0, addr, 1, 0, []uint64{1, 0})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			b.Fatal(err)
		}
		for {
			s.Clock()
			if _, ok := s.Recv(0); ok {
				return
			}
		}
	}
	// Both paths drive one acquire per iteration and reset the lock word
	// directly, so the measured difference is purely dispatch overhead.
	d, _ := s.Device(0)
	reset := func(addr uint64) {
		if err := d.Store().WriteUint64(addr, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drive(hmccmd.CMC125, 0x40)
			reset(0x40)
		}
	})
	b.Run("script", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drive(prog.Register().Rqst, 0x80)
			reset(0x80)
		}
	})
}
