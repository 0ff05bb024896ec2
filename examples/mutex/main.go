// Mutex: the paper's case study (§V). Loads the three CMC mutex
// operations (hmc_lock / hmc_trylock / hmc_unlock, command codes
// 125/126/127), runs Algorithm 1 with contending simulated threads on one
// 16-byte lock block, and reports the MIN/MAX/AVG cycle metrics of
// Figures 5-7 — with a CMC-level trace of the first few operations.
//
// Run with: go run ./examples/mutex
package main

import (
	"fmt"
	"log"

	hmcsim "repro"
	"repro/internal/hmccmd"
)

func main() {
	const threads = 16
	const lockAddr = 0x40

	// A recorder captures CMC executions: the trace resolves each op by
	// its registered human-readable name (the paper's discrete-tracing
	// requirement).
	rec := hmcsim.NewRecorder(hmcsim.TraceCMC)

	for _, cfg := range []hmcsim.Config{hmcsim.FourLink4GB(), hmcsim.EightLink8GB()} {
		run, err := hmcsim.RunMutex(cfg, threads, lockAddr, hmcsim.WithTracer(rec))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v, %d threads on one lock: MIN_CYCLE=%d MAX_CYCLE=%d AVG_CYCLE=%.2f (trylock spins: %d)\n",
			cfg, run.Threads, run.Min, run.Max, run.Avg, run.Trylocks)
	}

	fmt.Println("\nfirst CMC trace records (op names resolved in the trace):")
	for i, e := range rec.OfKind(hmcsim.TraceCMC) {
		if i >= 8 {
			break
		}
		fmt.Printf("  cycle %-4d vault %-3d %s (tag %d)\n", e.Cycle, e.Vault, e.Cmd, e.Tag)
	}

	// The same trio, hand-driven: lock from thread 1, contended lock from
	// thread 2, trylock showing the owner TID, then unlock.
	fmt.Println("\nhand-driven sequence:")
	s, err := hmcsim.New(hmcsim.FourLink4GB())
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"hmc_lock", "hmc_trylock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			log.Fatal(err)
		}
	}
	do := func(cmd hmcsim.RqstCmd, tid uint64) uint64 {
		r, err := hmcsim.Build(cmd, 0, lockAddr, 1, 0, []uint64{tid, 0})
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			log.Fatal(err)
		}
		for {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				return rsp.Payload[0]
			}
		}
	}
	fmt.Printf("  thread 1 hmc_lock    -> %d (1 = acquired)\n", do(hmccmd.CMC125, 1))
	fmt.Printf("  thread 2 hmc_lock    -> %d (0 = held)\n", do(hmccmd.CMC125, 2))
	fmt.Printf("  thread 2 hmc_trylock -> %d (owner TID)\n", do(hmccmd.CMC126, 2))
	fmt.Printf("  thread 1 hmc_unlock  -> %d (released)\n", do(hmccmd.CMC127, 1))
	fmt.Printf("  thread 2 hmc_trylock -> %d (now owns it)\n", do(hmccmd.CMC126, 2))
}
