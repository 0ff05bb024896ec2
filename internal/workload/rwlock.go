package workload

import (
	"fmt"

	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The reader-writer workload drives the RW-lock CMC extension (cmcops:
// hmc_rdlock/rdunlock/wrlock/wrunlock, command codes 58-61) through the
// full device pipeline: reader threads repeatedly take and release read
// holds while writer threads take exclusive holds and mutate a shared
// counter. The invariant — writers are mutually exclusive with everyone —
// is checked in-simulation by verifying the counter at the end: every
// writer increment survives (a reader/writer overlap would have allowed
// torn or lost updates in a real system; here the lock discipline itself
// is what is under test).

// rwRole selects a thread's behaviour.
type rwRole int

const (
	rwReader rwRole = iota
	rwWriter
)

// rwState is a thread's protocol position.
type rwState int

const (
	rwAcquire rwState = iota
	rwWaitAcquire
	rwReadData
	rwWaitData
	rwWriteData
	rwWaitWrite
	rwRelease
	rwWaitRelease
	rwDone
)

// RWAgent is one reader or writer thread performing Rounds critical
// sections on the lock at LockAddr guarding the counter at DataAddr.
type RWAgent struct {
	Role     rwRole
	TID      uint64
	LockAddr uint64
	DataAddr uint64
	Rounds   int

	state rwState
	round int
	seen  uint64
	// Acquisitions counts successful lock grabs; Retries counts refused
	// attempts.
	Acquisitions, Retries uint64

	scratch sim.ReqScratch
}

// tidPayload fills the scratch payload with {tid, 0}.
func (a *RWAgent) tidPayload() []uint64 {
	pl := a.scratch.Payload(2)
	pl[0], pl[1] = a.TID, 0
	return pl
}

// Next implements Agent.
func (a *RWAgent) Next(cycle uint64) *packet.Rqst {
	var r *packet.Rqst
	var err error
	switch a.state {
	case rwAcquire:
		a.state = rwWaitAcquire
		if a.Role == rwWriter {
			r, err = a.scratch.Build(hmccmd.CMC60, 0, a.LockAddr, 0, 0, a.tidPayload())
		} else {
			r, err = a.scratch.Build(hmccmd.CMC58, 0, a.LockAddr, 0, 0, nil)
		}
	case rwReadData:
		a.state = rwWaitData
		r, err = a.scratch.Build(hmccmd.RD16, 0, a.DataAddr, 0, 0, nil)
	case rwWriteData:
		a.state = rwWaitWrite
		pl := a.scratch.Payload(2)
		pl[0], pl[1] = a.seen+1, 0
		r, err = a.scratch.Build(hmccmd.WR16, 0, a.DataAddr, 0, 0, pl)
	case rwRelease:
		a.state = rwWaitRelease
		if a.Role == rwWriter {
			r, err = a.scratch.Build(hmccmd.CMC61, 0, a.LockAddr, 0, 0, a.tidPayload())
		} else {
			r, err = a.scratch.Build(hmccmd.CMC59, 0, a.LockAddr, 0, 0, nil)
		}
	default:
		return nil
	}
	if err != nil {
		panic(err)
	}
	return r
}

// Complete implements Agent.
func (a *RWAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil || rsp.Cmd == hmccmd.RspError {
		return fmt.Errorf("rw op failed: %+v", rsp)
	}
	switch a.state {
	case rwWaitAcquire:
		if rsp.Payload[0] == 1 {
			a.Acquisitions++
			a.state = rwReadData
		} else {
			a.Retries++
			a.state = rwAcquire // spin
		}
	case rwWaitData:
		a.seen = rsp.Payload[0]
		if a.Role == rwWriter {
			a.state = rwWriteData
		} else {
			a.state = rwRelease
		}
	case rwWaitWrite:
		a.state = rwRelease
	case rwWaitRelease:
		if rsp.Payload[0] != 1 {
			return fmt.Errorf("tid %d failed to release a lock it holds", a.TID)
		}
		a.round++
		if a.round >= a.Rounds {
			a.state = rwDone
		} else {
			a.state = rwAcquire
		}
	default:
		return fmt.Errorf("rw response in state %d", a.state)
	}
	return nil
}

// Done implements Agent.
func (a *RWAgent) Done() bool { return a.state == rwDone }

// RWResult summarizes one reader-writer run.
type RWResult struct {
	Readers, Writers int
	Rounds           int
	Cycles           uint64
	// Counter is the final shared-counter value; correctness requires
	// Writers*Rounds (every exclusive increment survived).
	Counter uint64
	// ReaderAcqs and WriterAcqs count successful holds; Retries counts
	// refused acquisition attempts across all threads.
	ReaderAcqs, WriterAcqs, Retries uint64
}

// RWLock drives readers+writers threads for rounds critical sections
// each and verifies the writer-increment invariant.
func (ss *Session) RWLock(readers, writers, rounds int) (RWResult, error) {
	if readers < 0 || writers < 0 {
		return RWResult{}, fmt.Errorf("workload: negative agent count: readers=%d writers=%d", readers, writers)
	}
	s, err := ss.begin(readers+writers, "hmc_rdlock", "hmc_rdunlock", "hmc_wrlock", "hmc_wrunlock")
	if err != nil {
		return RWResult{}, err
	}
	const lockAddr, dataAddr = 0x40, 0x80
	agents := ss.agentSlice(readers + writers)
	ss.rws = grow(ss.rws, readers+writers)
	rws := ss.rws
	for i := 0; i < readers; i++ {
		rws[i] = RWAgent{Role: rwReader, TID: uint64(i) + 1, LockAddr: lockAddr, DataAddr: dataAddr, Rounds: rounds}
	}
	for i := 0; i < writers; i++ {
		rws[readers+i] = RWAgent{Role: rwWriter, TID: uint64(readers+i) + 1, LockAddr: lockAddr, DataAddr: dataAddr, Rounds: rounds}
	}
	for i := range rws {
		agents[i] = &rws[i]
	}
	res, err := ss.run(agents, 10_000_000)
	if err != nil {
		return RWResult{}, err
	}

	out := RWResult{Readers: readers, Writers: writers, Rounds: rounds, Cycles: res.Cycles}
	for i := range rws {
		if rws[i].Role == rwReader {
			out.ReaderAcqs += rws[i].Acquisitions
		} else {
			out.WriterAcqs += rws[i].Acquisitions
		}
		out.Retries += rws[i].Retries
	}
	d, err := s.Device(0)
	if err != nil {
		return RWResult{}, err
	}
	out.Counter, err = d.Store().ReadUint64(dataAddr)
	if err != nil {
		return RWResult{}, err
	}
	if out.Counter != uint64(writers*rounds) {
		return out, fmt.Errorf("%w: counter %d, want %d (lost writer update)",
			ErrAgentFault, out.Counter, writers*rounds)
	}
	// The lock must end fully released.
	blk, err := d.Store().ReadBlock(lockAddr)
	if err != nil {
		return RWResult{}, err
	}
	if blk.Lo != 0 || blk.Hi != 0 {
		return out, fmt.Errorf("%w: lock left held (%+v)", ErrAgentFault, blk)
	}
	return out, nil
}
