// Package workload implements the host side of the paper's evaluation:
// simulated threads ("units of parallelism", §V-A) that issue HMC packets
// against a simulation context and the driver loop that clocks the device
// while matching responses back to their issuing threads.
//
// The package provides the paper's CMC mutex workload (Algorithm 1) and
// the kernels of the prior HMC-Sim results it builds on: STREAM Triad and
// HPCC RandomAccess (paper §II), plus a CAS/CMC-offloaded graph BFS
// modeled on the instruction-offloading study the paper cites [10].
package workload

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Errors returned by the driver.
var (
	// ErrTimeout reports a run exceeding its cycle budget.
	ErrTimeout = errors.New("workload: run exceeded max cycles")
	// ErrTooManyAgents reports more agents than available request tags.
	ErrTooManyAgents = errors.New("workload: too many agents for the tag space")
	// ErrAgentFault reports an agent observing an inconsistent response.
	ErrAgentFault = errors.New("workload: agent fault")
)

// Agent is one simulated host thread. The engine keeps at most one
// request outstanding per agent, matching a blocking memory pipeline.
type Agent interface {
	// Next returns the agent's next request, or nil when it has nothing
	// to issue this cycle (finished, or waiting on local work). The
	// engine fills in TAG and SLID before sending.
	Next(cycle uint64) *packet.Rqst
	// Complete delivers the response to the agent's outstanding request.
	// Posted requests complete immediately with a nil response.
	Complete(rsp *packet.Rsp, cycle uint64) error
	// Done reports that the agent finished its program.
	Done() bool
}

// Result summarizes one driven run.
type Result struct {
	// CompletionCycles[i] is the cycle agent i finished on (the paper's
	// per-thread "number of cycles required to perform the algorithm").
	CompletionCycles []uint64
	// Cycles is the cycle the last agent finished on.
	Cycles uint64
	// Summary aggregates CompletionCycles into MIN/MAX/AVG_CYCLE.
	Summary stats.Summary
	// Rqsts and SendStalls count issued requests and send-side stalls.
	Rqsts, SendStalls uint64
	// OpLatency aggregates per-operation issue-to-complete latency
	// (posted operations count as 0 cycles) — the run-local view of the
	// NameOpLatency histogram, available without a metrics registry.
	OpLatency stats.Summary
	// StalledAgents is the number of agents that absorbed at least one
	// HMC_STALL, and MaxAgentStalls the worst single agent's stall
	// count — the per-agent refinement of SendStalls.
	StalledAgents  int
	MaxAgentStalls uint64
	// LinkRetries and RetryTimeouts surface the run's device-side
	// reliability events next to the host-side latency numbers:
	// completed link retry sequences, and whole-packet drops recovered
	// only by the sender's retransmit timeout (summed over devices).
	LinkRetries, RetryTimeouts uint64
}

// Report renders the run's latency and reliability summary as one
// block: op latency next to send-stall and retry-timeout visibility
// (the workload-layer mirror of the device reliability Report line).
func (r Result) Report() string {
	return fmt.Sprintf(
		"completion cycles: %v\nop latency:        %v\n"+
			"send stalls:       %d total, %d/%d agents stalled, worst agent %d\n"+
			"link reliability:  %d retries, %d retransmit timeouts",
		&r.Summary, &r.OpLatency,
		r.SendStalls, r.StalledAgents, len(r.CompletionCycles), r.MaxAgentStalls,
		r.LinkRetries, r.RetryTimeouts)
}

// agentState is the engine's per-agent bookkeeping, kept in one slice
// (rather than parallel bool/pointer slices) so a run allocates once.
type agentState struct {
	outstanding bool // a response is in flight
	done        bool
	pending     *packet.Rqst // stalled request awaiting retry
	issueCycle  uint64       // cycle the outstanding request was accepted on
	stalls      uint64       // HMC_STALL rejections this agent absorbed
}

// Workload-level metric names registered by Run when the simulator
// carries a metrics registry (sim.WithMetrics).
const (
	// NameOpLatency is the per-operation issue-to-complete latency
	// histogram, in device cycles. Its MIN/MAX/AVG view is the per-op
	// refinement of the paper's per-thread cycle metrics.
	NameOpLatency = "hmc_workload_op_latency_cycles"
	// NameCompletion is the per-agent completion-cycle histogram — the
	// distribution behind the paper's MIN/MAX/AVG_CYCLE table rows.
	NameCompletion = "hmc_workload_completion_cycles"
	// NameSendStalls counts HMC_STALL rejections the engine absorbed by
	// retrying — the host-visible face of link-queue congestion (the
	// device-side mirror is hmc_device_send_stalls_total).
	NameSendStalls = "hmc_workload_send_stalls_total"
)

// Run drives the agents against the simulator until every agent is done,
// one issue/clock/drain step per device cycle. Cycles on which every
// unfinished agent has a response in flight skip the issue scan and ride
// the simulator's event scheduler (ClockUntilRecv) straight to the next
// response — with blocking agents and long device latencies most cycles
// take this run-until-event path, so the driver overhead scales with
// issue events rather than agent-count × cycles, and provably-idle or
// fault-parked device spans cost one calendar jump instead of a walk.
//
// Responses are returned to the device's free list after each Complete call:
// agents must not retain the response or its payload past Complete.
func Run(s *sim.Simulator, agents []Agent, maxCycles uint64) (Result, error) {
	return runWith(s, agents, maxCycles, make([]agentState, len(agents)), make([]uint64, len(agents)))
}

// runWith is the engine body behind Run. state and completion carry the
// per-agent bookkeeping and the result's completion-cycle slice; both
// must be len(agents) long and zeroed. Run allocates them fresh;
// Session.run passes pooled scratch so a reused session drives sweep
// points without allocating.
func runWith(s *sim.Simulator, agents []Agent, maxCycles uint64, state []agentState, completion []uint64) (Result, error) {
	if len(agents) > packet.MaxTag {
		return Result{}, fmt.Errorf("%w: %d agents", ErrTooManyAgents, len(agents))
	}
	res := Result{CompletionCycles: completion}
	links := s.Links()

	// With metrics enabled, observe per-op and per-agent latencies into
	// push histograms: registration happens once here, and each Observe on
	// the driving path is a few atomic ops — the engine stays
	// allocation-free either way (the serial-sweep benchmarks count).
	var opLat, complHist *metrics.Histogram
	var sendStalls *metrics.Counter
	if reg := s.Metrics(); reg != nil {
		opLat = reg.Histogram(NameOpLatency)
		complHist = reg.Histogram(NameCompletion)
		sendStalls = reg.Counter(NameSendStalls)
	}

	remaining := 0
	for i, a := range agents {
		if a.Done() {
			state[i].done = true
			continue
		}
		remaining++
	}

	// outstanding counts agents with a response in flight. When every
	// unfinished agent is waiting on the device (outstanding ==
	// remaining, which also implies no stalled sends: a pending retry
	// belongs to a non-outstanding agent), the issue phase cannot do
	// anything — the run-until-event loop below skips the agent scan and
	// just clocks and drains until a response frees an agent. Skipping a
	// no-op phase changes no observable: the same requests enter the
	// device on the same cycles either way.
	outstanding := 0

	for remaining > 0 {
		if s.Cycle() >= maxCycles {
			return res, fmt.Errorf("%w: %d agents unfinished after %d cycles",
				ErrTimeout, remaining, s.Cycle())
		}

		// Run-until-event fast path: when every unfinished agent is
		// waiting on the device, nothing host-side can happen until a
		// response surfaces — so ride the event scheduler's calendar
		// straight to that cycle (or the cycle budget) instead of
		// clocking one cycle per loop iteration. ClockUntilRecv stops on
		// exactly the cycle a clock-and-poll-every-cycle driver would
		// observe the response, so completion cycles, latencies and
		// device statistics are bit-identical either way.
		if outstanding == remaining {
			s.ClockUntilRecv(maxCycles - s.Cycle())
		} else {
			// Issue phase: idle agents produce their next request in fixed
			// agent order (deterministic host arbitration); stalled sends
			// retry without consulting the agent again.
			for i, a := range agents {
				st := &state[i]
				if st.done || st.outstanding {
					continue
				}
				r := st.pending
				if r == nil {
					r = a.Next(s.Cycle())
					if r == nil {
						if a.Done() && !st.done {
							// Agent finished without a trailing response
							// (e.g. a posted final op).
							st.done = true
							res.CompletionCycles[i] = s.Cycle()
							remaining--
						}
						continue
					}
					r.TAG = uint16(i)
					r.SLID = uint8(i % links)
				}
				if err := s.Send(int(r.SLID), r); err != nil {
					st.pending = r // HMC_STALL: retry next cycle
					st.stalls++
					res.SendStalls++
					if sendStalls != nil {
						sendStalls.Inc()
					}
					continue
				}
				st.pending = nil
				res.Rqsts++
				if r.Cmd.Posted() {
					// No response will arrive; the agent continues next cycle.
					res.OpLatency.Add(0)
					if opLat != nil {
						opLat.Observe(0)
					}
					if err := a.Complete(nil, s.Cycle()); err != nil {
						return res, fmt.Errorf("%w: agent %d: %v", ErrAgentFault, i, err)
					}
				} else {
					st.outstanding = true
					st.issueCycle = s.Cycle()
					outstanding++
				}
			}
			s.Clock()
		}

		// Drain phase: hand responses back to their agents.
		for link := 0; link < links; link++ {
			for {
				rsp, ok := s.Recv(link)
				if !ok {
					break
				}
				i := int(rsp.TAG)
				if i >= len(agents) || !state[i].outstanding {
					return res, fmt.Errorf("%w: response with unexpected tag %d", ErrAgentFault, rsp.TAG)
				}
				state[i].outstanding = false
				outstanding--
				res.OpLatency.Add(s.Cycle() - state[i].issueCycle)
				if opLat != nil {
					opLat.Observe(s.Cycle() - state[i].issueCycle)
				}
				err := agents[i].Complete(rsp, s.Cycle())
				sim.ReleaseRsp(rsp)
				if err != nil {
					return res, fmt.Errorf("%w: agent %d: %v", ErrAgentFault, i, err)
				}
				if agents[i].Done() && !state[i].done {
					state[i].done = true
					res.CompletionCycles[i] = s.Cycle()
					remaining--
				}
			}
		}
	}

	for _, c := range res.CompletionCycles {
		res.Summary.Add(c)
		if complHist != nil {
			complHist.Observe(c)
		}
	}
	// Per-agent stall visibility and the run's device-side reliability
	// counters (per-run even under session reuse: Reset zeroes stats).
	for i := range state {
		if st := state[i].stalls; st > 0 {
			res.StalledAgents++
			if st > res.MaxAgentStalls {
				res.MaxAgentStalls = st
			}
		}
	}
	for _, d := range s.Devices() {
		ds := d.Stats()
		res.LinkRetries += ds.LinkRetries
		res.RetryTimeouts += ds.Drops
	}
	res.Cycles = s.Cycle()
	return res, nil
}
