package workload

import (
	"fmt"

	"repro/cmcops"
	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

// mutexState tracks a thread's position in Algorithm 1 of the paper.
type mutexState int

const (
	mutexStart    mutexState = iota // issue HMC_LOCK
	mutexWaitLock                   // waiting on the lock response
	mutexSpin                       // issue HMC_TRYLOCK
	mutexWaitTry                    // waiting on the trylock response
	mutexRelease                    // issue HMC_UNLOCK
	mutexWaitUnl                    // waiting on the unlock response
	mutexDone
)

// MutexAgent executes the paper's CMC mutex algorithm (Algorithm 1):
//
//	HMC_LOCK(ADDR)
//	if LOCK_SUCCESS then HMC_UNLOCK(ADDR)
//	else
//	    HMC_TRYLOCK(ADDR)
//	    while LOCK_FAILED do HMC_TRYLOCK(ADDR)
//	    HMC_UNLOCK(ADDR)
//
// The thread ID travels in the request payload; trylock success is
// detected by comparing the returned owner TID against the thread's own
// (paper §V-A).
type MutexAgent struct {
	// TID is the thread/task ID written into the lock structure.
	TID uint64
	// CUB and Addr locate the shared lock block.
	CUB  int
	Addr uint64

	state mutexState
	// Trylocks counts trylock attempts, including the first.
	Trylocks uint64
	// WonByLock records whether the initial HMC_LOCK succeeded.
	WonByLock bool

	scratch sim.ReqScratch
}

// Next implements Agent.
func (m *MutexAgent) Next(cycle uint64) *packet.Rqst {
	var cmd hmccmd.Rqst
	switch m.state {
	case mutexStart:
		cmd = hmccmd.CMC125 // hmc_lock
		m.state = mutexWaitLock
	case mutexSpin:
		cmd = hmccmd.CMC126 // hmc_trylock
		m.Trylocks++
		m.state = mutexWaitTry
	case mutexRelease:
		cmd = hmccmd.CMC127 // hmc_unlock
		m.state = mutexWaitUnl
	default:
		return nil
	}
	pl := m.scratch.Payload(2)
	pl[0], pl[1] = m.TID, 0
	r, err := m.scratch.Build(cmd, m.CUB, m.Addr, 0, 0, pl)
	if err != nil {
		// The three mutex ops are 2-FLIT requests by construction; a
		// build failure is a programming error.
		panic(err)
	}
	return r
}

// Complete implements Agent.
func (m *MutexAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp == nil {
		return fmt.Errorf("mutex op lost its response")
	}
	if rsp.Cmd == hmccmd.RspError {
		return fmt.Errorf("mutex op failed with ERRSTAT %#x", rsp.ERRSTAT)
	}
	switch m.state {
	case mutexWaitLock:
		if rsp.Payload[0] == cmcops.RetSuccess {
			m.WonByLock = true
			m.state = mutexRelease
		} else {
			m.state = mutexSpin
		}
	case mutexWaitTry:
		if rsp.Payload[0] == m.TID {
			m.state = mutexRelease // we now own the lock
		} else {
			m.state = mutexSpin // held by another thread: spin
		}
	case mutexWaitUnl:
		if rsp.Payload[0] != cmcops.RetSuccess {
			return fmt.Errorf("thread %d failed to unlock a lock it holds", m.TID)
		}
		m.state = mutexDone
	default:
		return fmt.Errorf("unexpected response in state %d", m.state)
	}
	return nil
}

// Done implements Agent.
func (m *MutexAgent) Done() bool { return m.state == mutexDone }

// MutexRun is one row of the paper's Figures 5-7 data: the MIN/MAX/AVG
// thread completion cycles for one thread count on one configuration.
type MutexRun struct {
	Threads  int
	Min, Max uint64
	Avg      float64
	// Trylocks is the total trylock traffic (spin pressure).
	Trylocks uint64
	// SendStalls counts HMC_STALL rejections during the run.
	SendStalls uint64
}

// MutexSweepResult is the full sweep for one device configuration.
type MutexSweepResult struct {
	Config config.Config
	Runs   []MutexRun
}

// RunMutex executes Algorithm 1 with the given thread count against a
// fresh simulation of cfg, all threads contending on one lock block at
// lockAddr (the paper's deliberate hot spot, §V-B). Options (tracing,
// power) pass through to the simulator.
func RunMutex(cfg config.Config, threads int, lockAddr uint64, opts ...sim.Option) (MutexRun, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return MutexRun{}, err
	}
	return ss.Mutex(threads, lockAddr)
}

// Mutex is the Session form of RunMutex: the same workload against this
// session's simulator, Reset in place instead of rebuilt. On a
// multi-cube session the lock block lives on the last cube, so every
// lock request and its response cross the topology's hops between the
// host cube and that one.
func (ss *Session) Mutex(threads int, lockAddr uint64) (MutexRun, error) {
	s, err := ss.begin(threads, "hmc_lock", "hmc_trylock", "hmc_unlock")
	if err != nil {
		return MutexRun{}, err
	}
	// One backing array for all agents, reused across session runs: a
	// sweep constructs thousands of these, so per-agent heap objects add
	// up.
	agents := ss.agentSlice(threads)
	ss.muts = grow(ss.muts, threads)
	muts := ss.muts
	cub := len(s.Devices()) - 1
	for i := range muts {
		muts[i] = MutexAgent{TID: uint64(i) + 1, CUB: cub, Addr: lockAddr} // TID 0 means "free"
		agents[i] = &muts[i]
	}
	res, err := ss.run(agents, 1_000_000)
	if err != nil {
		return MutexRun{}, err
	}
	run := MutexRun{
		Threads:    threads,
		Min:        res.Summary.Min(),
		Max:        res.Summary.Max(),
		Avg:        res.Summary.Avg(),
		SendStalls: res.SendStalls,
	}
	for i := range muts {
		run.Trylocks += muts[i].Trylocks
	}
	// Post-condition: the lock must end free (every thread unlocked).
	d, err := s.Device(cub)
	if err != nil {
		return MutexRun{}, err
	}
	blk, err := d.Store().ReadBlock(lockAddr &^ 0xF)
	if err != nil {
		return MutexRun{}, err
	}
	if blk.Lo != 0 {
		return MutexRun{}, fmt.Errorf("%w: lock left held by TID %d", ErrAgentFault, blk.Hi)
	}
	return run, nil
}

// TableVI summarizes a sweep the way the paper's Table VI does: the
// extrema across the whole sweep.
func (r MutexSweepResult) TableVI() (minCycle, maxCycle uint64, maxAvg float64) {
	for i, run := range r.Runs {
		if i == 0 || run.Min < minCycle {
			minCycle = run.Min
		}
		if run.Max > maxCycle {
			maxCycle = run.Max
		}
		if run.Avg > maxAvg {
			maxAvg = run.Avg
		}
	}
	return minCycle, maxCycle, maxAvg
}
