package workload

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The basic Agent keeps one request outstanding — a blocking memory
// pipeline. Real hosts track many misses concurrently (MSHRs), and the
// paper's motivation is exactly such bandwidth-bound behaviour; this file
// adds a driver for agents with a configurable number of outstanding
// requests. Request tags are drawn from a shared pool spanning the
// packet TAG space, so a few hundred agents with deep pipelines coexist.

// PipelinedAgent is a host thread that may keep several requests in
// flight.
type PipelinedAgent interface {
	// Next returns the next request to issue, or nil when the agent has
	// nothing to issue this cycle. The engine calls it repeatedly each
	// cycle until it returns nil or the agent's width is reached.
	Next(cycle uint64) *packet.Rqst
	// Complete delivers a response along with the request it answers.
	Complete(rqst *packet.Rqst, rsp *packet.Rsp, cycle uint64) error
	// Done reports the agent finished its program.
	Done() bool
	// Width is the agent's maximum outstanding-request count.
	Width() int
}

// pendingSlot tracks one in-flight request of the pipelined engine.
type pendingSlot struct {
	agent int
	rqst  *packet.Rqst
}

// RunPipelined drives pipelined agents against the simulator. Completion
// cycles and totals are reported as in Run.
//
// Responses are returned to the packet pool after each Complete call:
// agents must not retain the response or its payload past Complete.
func RunPipelined(s *sim.Simulator, agents []PipelinedAgent, maxCycles uint64) (Result, error) {
	res := Result{CompletionCycles: make([]uint64, len(agents))}
	links := s.Links()

	// Tag pool: a free list over the 11-bit TAG space, with in-flight
	// requests tracked in a flat tag-indexed table (a map here costs a
	// hash per issue and per drain on the hot path).
	free := make([]uint16, 0, packet.MaxTag+1)
	for t := packet.MaxTag; t >= 0; t-- {
		free = append(free, uint16(t))
	}
	inFlight := make([]pendingSlot, packet.MaxTag+1)
	for t := range inFlight {
		inFlight[t].agent = -1
	}
	outstanding := make([]int, len(agents))
	pending := make([]*packet.Rqst, len(agents))
	done := make([]bool, len(agents))
	remaining := 0
	for i, a := range agents {
		if a.Width() < 1 {
			return res, fmt.Errorf("%w: agent %d has width %d", ErrAgentFault, i, a.Width())
		}
		if a.Done() {
			done[i] = true
			continue
		}
		remaining++
	}

	for remaining > 0 {
		if s.Cycle() >= maxCycles {
			return res, fmt.Errorf("%w: %d agents unfinished after %d cycles", ErrTimeout, remaining, s.Cycle())
		}

		// Issue phase: fill each agent's pipeline.
		for i, a := range agents {
			if done[i] {
				continue
			}
			for outstanding[i] < a.Width() {
				r := pending[i]
				if r == nil {
					r = a.Next(s.Cycle())
					if r == nil {
						break
					}
					if len(free) == 0 {
						// Tag space exhausted: park the request and stop
						// issuing for everyone this cycle.
						pending[i] = r
						break
					}
					tag := free[len(free)-1]
					free = free[:len(free)-1]
					r.TAG = tag
					r.SLID = uint8(i % links)
					inFlight[tag] = pendingSlot{agent: i, rqst: r}
				}
				if err := s.Send(int(r.SLID), r); err != nil {
					pending[i] = r // HMC_STALL: retry next cycle
					res.SendStalls++
					break
				}
				pending[i] = nil
				res.Rqsts++
				if r.Cmd.Posted() {
					inFlight[r.TAG] = pendingSlot{agent: -1}
					free = append(free, r.TAG)
					if err := a.Complete(r, nil, s.Cycle()); err != nil {
						return res, fmt.Errorf("%w: agent %d: %v", ErrAgentFault, i, err)
					}
				} else {
					outstanding[i]++
				}
			}
			if !done[i] && outstanding[i] == 0 && pending[i] == nil && a.Done() {
				done[i] = true
				res.CompletionCycles[i] = s.Cycle()
				remaining--
			}
		}

		s.Clock()

		// Drain phase.
		for link := 0; link < links; link++ {
			for {
				rsp, ok := s.Recv(link)
				if !ok {
					break
				}
				if int(rsp.TAG) >= len(inFlight) {
					return res, fmt.Errorf("%w: response with unexpected tag %d", ErrAgentFault, rsp.TAG)
				}
				slot := inFlight[rsp.TAG]
				if slot.agent < 0 {
					return res, fmt.Errorf("%w: response with unexpected tag %d", ErrAgentFault, rsp.TAG)
				}
				inFlight[rsp.TAG] = pendingSlot{agent: -1}
				free = append(free, rsp.TAG)
				outstanding[slot.agent]--
				a := agents[slot.agent]
				err := a.Complete(slot.rqst, rsp, s.Cycle())
				sim.ReleaseRsp(rsp)
				if err != nil {
					return res, fmt.Errorf("%w: agent %d: %v", ErrAgentFault, slot.agent, err)
				}
				if !done[slot.agent] && outstanding[slot.agent] == 0 && pending[slot.agent] == nil && a.Done() {
					done[slot.agent] = true
					res.CompletionCycles[slot.agent] = s.Cycle()
					remaining--
				}
			}
		}
	}

	for _, c := range res.CompletionCycles {
		res.Summary.Add(c)
	}
	res.Cycles = s.Cycle()
	return res, nil
}

// PipelinedReader streams reads over a contiguous region with a
// configurable pipeline width — the classic bandwidth probe.
//
// Requests come from a free list of W scratches: a scratch is checked
// out by Next and returned when Complete identifies it by the request
// pointer, so a full pipeline issues without allocating.
type PipelinedReader struct {
	// Base and Blocks delimit the region (64-byte blocks); W is the
	// pipeline width.
	Base   uint64
	Blocks uint64
	W      int

	issued    uint64
	completed uint64
	// Latency aggregates per-read round trips.
	Latency stats.Summary

	scratches []sim.ReqScratch
	freeList  []*sim.ReqScratch
}

// Next implements PipelinedAgent.
func (p *PipelinedReader) Next(cycle uint64) *packet.Rqst {
	if p.issued >= p.Blocks {
		return nil
	}
	if p.scratches == nil {
		p.scratches = make([]sim.ReqScratch, p.W)
		p.freeList = make([]*sim.ReqScratch, 0, p.W)
		for i := range p.scratches {
			p.freeList = append(p.freeList, &p.scratches[i])
		}
	}
	if len(p.freeList) == 0 {
		// Every scratch is in flight; the engine's width cap normally
		// prevents this, but a parked (stalled) request also holds one.
		return nil
	}
	sc := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	r, err := sc.BuildRead(0, p.Base+p.issued*64, 0, 0, 64)
	if err != nil {
		panic(err)
	}
	p.issued++
	return r
}

// Complete implements PipelinedAgent.
func (p *PipelinedReader) Complete(rqst *packet.Rqst, rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil || rsp.ERRSTAT != 0 {
		return fmt.Errorf("read failed: %+v", rsp)
	}
	for i := range p.scratches {
		if p.scratches[i].Owns(rqst) {
			p.freeList = append(p.freeList, &p.scratches[i])
			break
		}
	}
	p.completed++
	return nil
}

// Done implements PipelinedAgent.
func (p *PipelinedReader) Done() bool { return p.completed >= p.Blocks }

// Width implements PipelinedAgent.
func (p *PipelinedReader) Width() int { return p.W }

// BandwidthProbeResult reports one bandwidth measurement.
type BandwidthProbeResult struct {
	Threads, Width int
	Blocks         uint64
	Cycles         uint64
	// BytesPerCycle is the achieved read bandwidth.
	BytesPerCycle float64
}

// RunBandwidthProbe streams reads with the given thread count and
// pipeline width and reports achieved bandwidth — the saturation curve
// the paper's bandwidth-bound motivation rests on.
func RunBandwidthProbe(cfg config.Config, threads, width int, blocksPerThread uint64, opts ...sim.Option) (BandwidthProbeResult, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return BandwidthProbeResult{}, err
	}
	return ss.BandwidthProbe(threads, width, blocksPerThread)
}

// BandwidthProbe is the Session form of RunBandwidthProbe. The
// pipelined engine allocates its own tag tables per run; only simulator
// construction is pooled here.
func (ss *Session) BandwidthProbe(threads, width int, blocksPerThread uint64) (BandwidthProbeResult, error) {
	s, err := ss.begin(threads)
	if err != nil {
		return BandwidthProbeResult{}, err
	}
	agents := make([]PipelinedAgent, threads)
	for i := range agents {
		agents[i] = &PipelinedReader{
			Base:   uint64(i) * blocksPerThread * 64,
			Blocks: blocksPerThread,
			W:      width,
		}
	}
	res, err := RunPipelined(s, agents, 100_000_000)
	if err != nil {
		return BandwidthProbeResult{}, err
	}
	total := blocksPerThread * uint64(threads)
	return BandwidthProbeResult{
		Threads: threads, Width: width, Blocks: total, Cycles: res.Cycles,
		BytesPerCycle: float64(total*64) / float64(res.Cycles),
	}, nil
}
