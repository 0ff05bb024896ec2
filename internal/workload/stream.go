package workload

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The STREAM Triad kernel (a[i] = b[i] + q*c[i]) was one of the two
// pathological kernels of the original HMC-Sim results (paper §II,
// citing McCalpin's STREAM): a pure stride-1 pattern that spreads across
// every vault through the block interleave. Elements are 8-byte integers
// here (the access pattern, not the arithmetic, is what the simulator
// models); each agent walks a contiguous chunk one 64-byte block at a
// time: read b, read c, write a.

// streamState is the per-block state machine position.
type streamState int

const (
	streamReadB streamState = iota
	streamWaitB
	streamReadC
	streamWaitC
	streamWriteA
	streamWaitA
	streamDone
)

// StreamAgent executes the Triad over one chunk of blocks.
type StreamAgent struct {
	// Q is the Triad scalar.
	Q uint64
	// ABase, BBase and CBase are the array base addresses.
	ABase, BBase, CBase uint64
	// FirstBlock and Blocks delimit the agent's chunk (64-byte blocks).
	FirstBlock, Blocks uint64

	cur   uint64
	state streamState
	b     [8]uint64
	out   [8]uint64

	scratch sim.ReqScratch
}

// Next implements Agent.
func (a *StreamAgent) Next(cycle uint64) *packet.Rqst {
	if a.Blocks == 0 {
		a.state = streamDone
	}
	off := (a.FirstBlock + a.cur) * 64
	switch a.state {
	case streamReadB:
		a.state = streamWaitB
		r, err := a.scratch.BuildRead(0, a.BBase+off, 0, 0, 64)
		if err != nil {
			panic(err)
		}
		return r
	case streamReadC:
		a.state = streamWaitC
		r, err := a.scratch.BuildRead(0, a.CBase+off, 0, 0, 64)
		if err != nil {
			panic(err)
		}
		return r
	case streamWriteA:
		a.state = streamWaitA
		r, err := a.scratch.BuildWrite(0, a.ABase+off, 0, 0, a.out[:], false)
		if err != nil {
			panic(err)
		}
		return r
	default:
		return nil
	}
}

// Complete implements Agent.
func (a *StreamAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil || rsp.ERRSTAT != 0 {
		return fmt.Errorf("stream op failed: %+v", rsp)
	}
	switch a.state {
	case streamWaitB:
		copy(a.b[:], rsp.Payload)
		a.state = streamReadC
	case streamWaitC:
		for i := range a.out {
			a.out[i] = a.b[i] + a.Q*rsp.Payload[i] // the Triad
		}
		a.state = streamWriteA
	case streamWaitA:
		a.cur++
		if a.cur >= a.Blocks {
			a.state = streamDone
		} else {
			a.state = streamReadB
		}
	default:
		return fmt.Errorf("stream response in state %d", a.state)
	}
	return nil
}

// Done implements Agent.
func (a *StreamAgent) Done() bool { return a.state == streamDone }

// StreamResult summarizes one Triad run.
type StreamResult struct {
	Threads int
	// Elements is the total number of 8-byte elements per array.
	Elements uint64
	// Cycles is the total run length.
	Cycles uint64
	// Flits is the total link FLIT traffic (requests and responses).
	Flits uint64
	// BandwidthGBs is the effective bandwidth at the given clock.
	BandwidthGBs float64
	// BytesPerCycle is the clock-independent throughput.
	BytesPerCycle float64
}

// RunStream executes the Triad with the given thread count over blocks
// 64-byte blocks per array and verifies the result array in memory.
func RunStream(cfg config.Config, threads int, blocks uint64, clockGHz float64, opts ...sim.Option) (StreamResult, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return StreamResult{}, err
	}
	return ss.Stream(threads, blocks, clockGHz)
}

// Stream is the Session form of RunStream.
func (ss *Session) Stream(threads int, blocks uint64, clockGHz float64) (StreamResult, error) {
	s, err := ss.begin(threads)
	if err != nil {
		return StreamResult{}, err
	}
	const q = 3
	capacity := s.Config().CapacityBytes()
	aBase := uint64(0)
	bBase := capacity / 4
	cBase := capacity / 2

	// Initialize b and c host-side.
	d, err := s.Device(0)
	if err != nil {
		return StreamResult{}, err
	}
	store := d.Store()
	n := blocks * 8
	for i := uint64(0); i < n; i++ {
		if err := store.WriteUint64(bBase+i*8, i); err != nil {
			return StreamResult{}, err
		}
		if err := store.WriteUint64(cBase+i*8, 2*i); err != nil {
			return StreamResult{}, err
		}
	}

	agents := ss.agentSlice(threads)
	ss.streams = grow(ss.streams, threads)
	streams := ss.streams
	per := blocks / uint64(threads)
	extra := blocks % uint64(threads)
	first := uint64(0)
	for i := range streams {
		cnt := per
		if uint64(i) < extra {
			cnt++
		}
		streams[i] = StreamAgent{
			Q: q, ABase: aBase, BBase: bBase, CBase: cBase,
			FirstBlock: first, Blocks: cnt,
		}
		agents[i] = &streams[i]
		first += cnt
	}
	res, err := ss.run(agents, 100_000_000)
	if err != nil {
		return StreamResult{}, err
	}

	// Verify a[i] = b[i] + q*c[i].
	for i := uint64(0); i < n; i++ {
		got, err := store.ReadUint64(aBase + i*8)
		if err != nil {
			return StreamResult{}, err
		}
		if want := i + q*(2*i); got != want {
			return StreamResult{}, fmt.Errorf("%w: a[%d] = %d, want %d", ErrAgentFault, i, got, want)
		}
	}

	// Per block: RD64 (1+5 flits) + RD64 (1+5) + WR64 (5+1) = 18 flits.
	flits := blocks * 18
	return StreamResult{
		Threads:       threads,
		Elements:      n,
		Cycles:        res.Cycles,
		Flits:         flits,
		BandwidthGBs:  stats.LinkBandwidthGBs(flits, res.Cycles, clockGHz),
		BytesPerCycle: float64(blocks*3*64) / float64(res.Cycles),
	}, nil
}
