package main

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The random-access workload is HPCC RandomAccess (GUPS) on 4Link-4GB:
// 64 agents apply 16,384 seeded random updates to a 2^18-entry (4 MiB)
// table per run, from Reset. Half the agents update with XOR16 atomics,
// half with host RD16+WR16 read-modify-write, so every run, the latency
// unit, exercises both and their times form one cluster. A run is short
// enough that a measured phase holds over a thousand of them, so their
// 99th percentile has ten samples beyond it. The table spans 1,024
// store pages and outgrows a core's 2 MiB L2 cache; a 16 MiB one spent
// a fifth of each run in Reset and swung more from run to run (README.md
// gives the measurements). Every agent seed derives from the benchmark
// seed and the run number.
const (
	gupsAgents    = 64
	gupsAtomics   = gupsAgents / 2 // agents 0..31 atomic, the rest read-modify-write
	gupsTable     = 1 << 18
	gupsUpdates   = 16384
	gupsMaxCycles = 100_000_000
)

// Owner marks of the host replay beside agent a's own, a+1: an entry no
// agent updated, one several atomic agents updated, and one several
// agents updated, one of them by read-modify-write. Only the last may
// race.
const (
	gupsUntouched   = 0
	gupsMultiAtomic = 0xFE
	gupsMultiRMW    = 0xFF
)

type gupsInst struct {
	seed   uint64
	sim    *sim.Simulator
	runs   uint64 // runs started, which selects the seeds
	agents []workload.GUPSAgent
	iface  []workload.Agent
	// The host replay: xor[i] is the XOR of every update to entry i,
	// owner[i] who made them, and touched lists the entries to check and
	// clear.
	xor     []uint64
	owner   []uint8
	touched []uint32
}

func openGUPS(o *options) (instance, error) {
	s, err := sim.New(config.FourLink4GB())
	if err != nil {
		return nil, err
	}
	gi := &gupsInst{
		seed:   o.seed,
		sim:    s,
		agents: make([]workload.GUPSAgent, gupsAgents),
		iface:  make([]workload.Agent, gupsAgents),
	}
	for i := range gi.agents {
		gi.iface[i] = &gi.agents[i]
	}
	return gi, nil
}

func (gi *gupsInst) close() { gi.sim.Close() }

// prepare resets the agents for run number run.
func (gi *gupsInst) prepare(run uint64) {
	for i := range gi.agents {
		mode := workload.GUPSBaseline
		if i < gupsAtomics {
			mode = workload.GUPSAtomic
		}
		gi.agents[i] = workload.GUPSAgent{
			Mode:        mode,
			TableBlocks: gupsTable,
			Updates:     gupsUpdates / gupsAgents,
			Seed:        mix(gi.seed, run, uint64(i)) | 1, // xorshift needs a nonzero state
		}
	}
}

// xorshift64 is the agents' update-stream generator, restated for the
// host replay.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// verify replays the run's update streams on the host and compares the
// table: every entry except those a read-modify-write agent updated
// beside another agent, whose updates may race, as in the real kernel.
func (gi *gupsInst) verify() error {
	for a := range gi.agents {
		atomic := a < gupsAtomics
		ran := gi.agents[a].Seed
		for u := uint64(0); u < gi.agents[a].Updates; u++ {
			ran = xorshift64(ran)
			idx := ran % gupsTable
			switch o := gi.owner[idx]; {
			case o == gupsUntouched:
				gi.owner[idx] = uint8(a + 1)
				gi.touched = append(gi.touched, uint32(idx))
			case o == uint8(a+1), o == gupsMultiRMW:
			case atomic && (o == gupsMultiAtomic || int(o)-1 < gupsAtomics):
				gi.owner[idx] = gupsMultiAtomic
			default:
				gi.owner[idx] = gupsMultiRMW
			}
			gi.xor[idx] ^= ran
		}
	}
	d, err := gi.sim.Device(0)
	if err != nil {
		return err
	}
	var bad error
	for _, idx := range gi.touched {
		if bad == nil && gi.owner[idx] != gupsMultiRMW {
			blk, err := d.Store().ReadBlock(uint64(idx) * 16)
			if err != nil {
				bad = err
			} else if blk.Lo != gi.xor[idx] || blk.Hi != 0 {
				bad = fmt.Errorf("table[%d] = %#x:%#x, want %#x", idx, blk.Hi, blk.Lo, gi.xor[idx])
			}
		}
		gi.xor[idx], gi.owner[idx] = 0, gupsUntouched
	}
	gi.touched = gi.touched[:0]
	return bad
}

// once runs one GUPS run from Reset, returning its host time and
// simulated cycles; the check runs after the clock stops.
func (gi *gupsInst) once() (time.Duration, uint64, error) {
	gi.prepare(gi.runs)
	gi.runs++
	t0 := time.Now()
	gi.sim.Reset()
	res, err := workload.Run(gi.sim, gi.iface, gupsMaxCycles)
	d := time.Since(t0)
	if err != nil {
		return d, 0, err
	}
	return d, res.Cycles, gi.verify()
}

func (gi *gupsInst) warm() error {
	// The checker's tables are the benchmark's own, not set-up.
	gi.xor = make([]uint64, gupsTable)
	gi.owner = make([]uint8, gupsTable)
	// Two runs materialize nearly all of the table's pages.
	for i := 0; i < 2; i++ {
		if _, _, err := gi.once(); err != nil {
			return err
		}
	}
	return nil
}

// run measures runs until the deadline.
func (gi *gupsInst) run(until time.Time, t *tally) error {
	for time.Now().Before(until) {
		d, cycles, err := gi.once()
		t.ops += gupsUpdates
		t.busy += d
		if err != nil {
			t.failed += gupsUpdates
			continue
		}
		t.cycles += cycles
		t.lat.add(d.Nanoseconds())
	}
	return nil
}

// traced runs each input twice: through workload.Run as the reference,
// then through the timed twin, which must reproduce it exactly.
func (gi *gupsInst) traced(until time.Time, t *tally) (*ledger, error) {
	var c simCounts
	var wall time.Duration
	for time.Now().Before(until) {
		run := gi.runs
		gi.runs++
		gi.prepare(run)
		gi.sim.Reset()
		res, err := workload.Run(gi.sim, gi.iface, gupsMaxCycles)
		if err != nil {
			return nil, err
		}
		ref := fingerprint(gi.sim, res.CompletionCycles)
		gi.prepare(run)

		t0 := time.Now()
		gi.sim.Reset()
		c.reset += time.Since(t0)
		c.resets++
		completion, err := runTwin(gi.sim, gi.iface, gupsMaxCycles, &c)
		wall += time.Since(t0)
		if err != nil {
			return nil, err
		}
		c.addDevices(gi.sim)
		t.ops += gupsUpdates
		if !fingerprint(gi.sim, completion).equal(ref) || gi.verify() != nil {
			t.failed += gupsUpdates
		}
	}
	t.busy = wall
	t.cycles = c.simCycles
	return engineLedger(wall, &c), nil
}
