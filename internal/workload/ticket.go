package workload

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The ticket-lock workload exercises the "more expressive locks" the
// paper reserves encoding space for (§V-A): instead of spinning on
// trylock, each thread atomically takes a ticket (hmc_ticket, CMC56),
// polls the lock block until the now-serving counter reaches its ticket,
// and releases by advancing the counter (hmc_ticket_next, CMC57). The
// interesting comparison against the paper's spin mutex is fairness:
// ticket handoff is FIFO by construction, while trylock handoff is
// whoever's packet lands first after the unlock.

// ticketState is a thread's position in the ticket protocol.
type ticketState int

const (
	ticketTake ticketState = iota
	ticketWaitTake
	ticketPoll
	ticketWaitPoll
	ticketRelease
	ticketWaitRelease
	ticketDone
)

// TicketAgent executes one thread of the ticket-mutex workload.
type TicketAgent struct {
	// CUB and Addr locate the ticket block.
	CUB  int
	Addr uint64

	state  ticketState
	ticket uint64
	// Polls counts RD16 poll round trips while waiting.
	Polls uint64
	// AcquiredAt is the cycle the thread observed itself holding the
	// lock.
	AcquiredAt uint64

	scratch sim.ReqScratch
}

// NewTicketAgent returns an agent for one simulated thread.
func NewTicketAgent(cub int, addr uint64) *TicketAgent {
	return &TicketAgent{CUB: cub, Addr: addr}
}

// Next implements Agent.
func (a *TicketAgent) Next(cycle uint64) *packet.Rqst {
	switch a.state {
	case ticketTake:
		a.state = ticketWaitTake
		r, err := a.scratch.BuildCMC(hmccmd.CMC56, a.CUB, a.Addr, 0, 0, nil)
		if err != nil {
			panic(err)
		}
		return r
	case ticketPoll:
		a.state = ticketWaitPoll
		a.Polls++
		r, err := a.scratch.BuildRead(a.CUB, a.Addr, 0, 0, 16)
		if err != nil {
			panic(err)
		}
		return r
	case ticketRelease:
		a.state = ticketWaitRelease
		r, err := a.scratch.BuildCMC(hmccmd.CMC57, a.CUB, a.Addr, 0, 0, nil)
		if err != nil {
			panic(err)
		}
		return r
	default:
		return nil
	}
}

// Complete implements Agent.
func (a *TicketAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil || rsp.Cmd == hmccmd.RspError {
		return fmt.Errorf("ticket op failed: %+v", rsp)
	}
	switch a.state {
	case ticketWaitTake:
		a.ticket = rsp.Payload[0]
		if rsp.Payload[1] == a.ticket {
			a.AcquiredAt = cycle
			a.state = ticketRelease // already being served
		} else {
			a.state = ticketPoll
		}
	case ticketWaitPoll:
		// RD16 of the block: payload[1] is the now-serving counter.
		if rsp.Payload[1] == a.ticket {
			a.AcquiredAt = cycle
			a.state = ticketRelease
		} else {
			a.state = ticketPoll
		}
	case ticketWaitRelease:
		a.state = ticketDone
	default:
		return fmt.Errorf("ticket response in state %d", a.state)
	}
	return nil
}

// Done implements Agent.
func (a *TicketAgent) Done() bool { return a.state == ticketDone }

// Ticket returns the ticket number the agent drew.
func (a *TicketAgent) Ticket() uint64 { return a.ticket }

// TicketRun summarizes one ticket-mutex run.
type TicketRun struct {
	Threads  int
	Min, Max uint64
	Avg      float64
	// Polls is the total poll traffic while waiting.
	Polls uint64
	// Inversions counts fairness violations: thread pairs that acquired
	// the lock in the opposite order from their tickets. Zero for a
	// correct ticket lock.
	Inversions int
}

// Inversions counts order inversions between two parallel slices: pairs
// where a[i] < a[j] but b[i] > b[j].
func Inversions(order, completion []uint64) int {
	n := 0
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if (order[i] < order[j]) != (completion[i] < completion[j]) &&
				order[i] != order[j] && completion[i] != completion[j] {
				n++
			}
		}
	}
	return n
}

// RunTicketMutex executes the ticket-lock workload with the given thread
// count contending on one ticket block.
func RunTicketMutex(cfg config.Config, threads int, addr uint64, opts ...sim.Option) (TicketRun, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return TicketRun{}, err
	}
	return ss.TicketMutex(threads, addr)
}

// TicketMutex is the Session form of RunTicketMutex.
func (ss *Session) TicketMutex(threads int, addr uint64) (TicketRun, error) {
	s, err := ss.begin(threads, "hmc_ticket", "hmc_ticket_next")
	if err != nil {
		return TicketRun{}, err
	}
	agents := ss.agentSlice(threads)
	ss.ticks = grow(ss.ticks, threads)
	ticks := ss.ticks
	for i := range ticks {
		ticks[i] = TicketAgent{Addr: addr}
		agents[i] = &ticks[i]
	}
	res, err := ss.run(agents, 10_000_000)
	if err != nil {
		return TicketRun{}, err
	}

	run := TicketRun{
		Threads: threads,
		Min:     res.Summary.Min(),
		Max:     res.Summary.Max(),
		Avg:     res.Summary.Avg(),
	}
	tickets := make([]uint64, threads)
	acquired := make([]uint64, threads)
	for i := range ticks {
		run.Polls += ticks[i].Polls
		tickets[i] = ticks[i].Ticket()
		acquired[i] = ticks[i].AcquiredAt
	}
	run.Inversions = Inversions(tickets, acquired)

	// Post-condition: every ticket was served.
	d, err := s.Device(0)
	if err != nil {
		return TicketRun{}, err
	}
	blk, err := d.Store().ReadBlock(addr &^ 0xF)
	if err != nil {
		return TicketRun{}, err
	}
	if blk.Lo != uint64(threads) || blk.Hi != uint64(threads) {
		return TicketRun{}, fmt.Errorf("%w: final state next=%d serving=%d, want %d/%d",
			ErrAgentFault, blk.Lo, blk.Hi, threads, threads)
	}
	return run, nil
}
