package workload

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The HPCC RandomAccess (GUPS) kernel was the second pathological kernel
// of the original HMC-Sim results (paper §II): random read-modify-write
// updates T[ran mod N] ^= ran across a large table — the worst case for
// locality and the best case for in-situ atomics. Two modes are modeled:
//
//   - GUPSBaseline issues a 16-byte read followed by a 16-byte write per
//     update (the cache-less equivalent of the traditional RMW cycle).
//   - GUPSAtomic issues a single XOR16 atomic per update, performing the
//     modify in the vault logic — the Gen2 AMO path whose traffic
//     advantage Table II quantifies.
type GUPSMode int

// GUPS modes.
const (
	GUPSBaseline GUPSMode = iota
	GUPSAtomic
)

// String names the mode.
func (m GUPSMode) String() string {
	if m == GUPSAtomic {
		return "amo"
	}
	return "baseline"
}

// xorshift64 is the deterministic update-stream generator.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// gupsState is the per-update position for the baseline mode.
type gupsState int

const (
	gupsIssue gupsState = iota
	gupsWaitAtomic
	gupsWaitRead
	gupsWriteReady
	gupsWaitWrite
	gupsDone
)

// GUPSAgent performs a deterministic stream of random updates.
type GUPSAgent struct {
	// Mode selects baseline RMW or in-situ atomic updates.
	Mode GUPSMode
	// TableBase and TableBlocks locate the table (16-byte entries).
	TableBase   uint64
	TableBlocks uint64
	// Updates is how many updates this agent performs.
	Updates uint64
	// Seed initializes the update stream.
	Seed uint64

	ran   uint64
	done  uint64
	state gupsState
	val   uint64

	scratch sim.ReqScratch
}

// target returns the table address for the current random value.
func (g *GUPSAgent) target() uint64 {
	return g.TableBase + (g.ran%g.TableBlocks)*16
}

// Next implements Agent.
func (g *GUPSAgent) Next(cycle uint64) *packet.Rqst {
	if g.state == gupsDone {
		return nil
	}
	if g.state == gupsIssue {
		if g.done >= g.Updates {
			g.state = gupsDone
			return nil
		}
		if g.ran == 0 {
			g.ran = g.Seed
		}
		g.ran = xorshift64(g.ran)
		if g.Mode == GUPSAtomic {
			g.state = gupsWaitAtomic
			pl := g.scratch.Payload(2)
			pl[0], pl[1] = g.ran, 0
			r, err := g.scratch.BuildAtomic(hmccmd.XOR16, 0, g.target(), 0, 0, pl)
			if err != nil {
				panic(err)
			}
			return r
		}
		g.state = gupsWaitRead
		r, err := g.scratch.BuildRead(0, g.target(), 0, 0, 16)
		if err != nil {
			panic(err)
		}
		return r
	}
	if g.state == gupsWriteReady {
		g.state = gupsWaitWrite
		pl := g.scratch.Payload(2)
		pl[0], pl[1] = g.val, 0
		r, err := g.scratch.BuildWrite(0, g.target(), 0, 0, pl, false)
		if err != nil {
			panic(err)
		}
		return r
	}
	return nil
}

// Complete implements Agent.
func (g *GUPSAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil || rsp.ERRSTAT != 0 {
		return fmt.Errorf("gups op failed: %+v", rsp)
	}
	switch g.state {
	case gupsWaitAtomic:
		g.done++
		g.state = gupsIssue
	case gupsWaitRead:
		g.val = rsp.Payload[0] ^ g.ran
		g.state = gupsWriteReady
	case gupsWaitWrite:
		g.done++
		g.state = gupsIssue
	default:
		return fmt.Errorf("gups response in state %d", g.state)
	}
	return nil
}

// Done implements Agent.
func (g *GUPSAgent) Done() bool { return g.state == gupsDone }

// GUPSResult summarizes one RandomAccess run.
type GUPSResult struct {
	Mode    GUPSMode
	Threads int
	Updates uint64
	Cycles  uint64
	// Flits is the total link FLIT traffic.
	Flits uint64
	// UpdatesPerKCycle is the throughput in updates per thousand cycles.
	UpdatesPerKCycle float64
}

// RunGUPS performs updates random updates split across threads against a
// table of tableBlocks 16-byte entries. In atomic mode the final table
// contents are verified against a host-side replay (XOR updates commute,
// so the result is schedule independent).
func RunGUPS(cfg config.Config, mode GUPSMode, threads int, tableBlocks, updates uint64, opts ...sim.Option) (GUPSResult, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return GUPSResult{}, err
	}
	return ss.GUPS(mode, threads, tableBlocks, updates)
}

// GUPS is the Session form of RunGUPS.
func (ss *Session) GUPS(mode GUPSMode, threads int, tableBlocks, updates uint64) (GUPSResult, error) {
	s, err := ss.begin(threads)
	if err != nil {
		return GUPSResult{}, err
	}
	agents := ss.agentSlice(threads)
	ss.gups = grow(ss.gups, threads)
	gups := ss.gups
	per := updates / uint64(threads)
	for i := range gups {
		gups[i] = GUPSAgent{
			Mode: mode, TableBase: 0, TableBlocks: tableBlocks,
			Updates: per, Seed: uint64(i)*0x9E3779B97F4A7C15 + 1,
		}
		agents[i] = &gups[i]
	}
	res, err := ss.run(agents, 100_000_000)
	if err != nil {
		return GUPSResult{}, err
	}

	total := per * uint64(threads)
	var flits uint64
	if mode == GUPSAtomic {
		flits = total * 4 // XOR16: 2 rqst + 2 rsp
	} else {
		flits = total * 6 // RD16 (1+2) + WR16 (2+1)
	}

	if mode == GUPSAtomic {
		// Replay the update streams host-side and compare.
		want := make(map[uint64]uint64)
		for i := range gups {
			g := &gups[i]
			ran := g.Seed
			for u := uint64(0); u < g.Updates; u++ {
				ran = xorshift64(ran)
				want[ran%tableBlocks] ^= ran
			}
		}
		d, err := s.Device(0)
		if err != nil {
			return GUPSResult{}, err
		}
		for idx, w := range want {
			blk, err := d.Store().ReadBlock(idx * 16)
			if err != nil {
				return GUPSResult{}, err
			}
			if blk.Lo != w {
				return GUPSResult{}, fmt.Errorf("%w: table[%d] = %#x, want %#x", ErrAgentFault, idx, blk.Lo, w)
			}
		}
	}

	return GUPSResult{
		Mode:             mode,
		Threads:          threads,
		Updates:          total,
		Cycles:           res.Cycles,
		Flits:            flits,
		UpdatesPerKCycle: 1000 * float64(total) / float64(res.Cycles),
	}, nil
}
