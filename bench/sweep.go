package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper-sweep workload regenerates the paper's Table VI / Figures
// 5-7 data: Algorithm 1 at 2..100 threads on both evaluation presets,
// one worker per schedulable core. It runs the sweep the way
// MutexSweepParallel does (RunIndexedPooled over pooled Sessions,
// Session.Mutex per point) but from its own pool, so set-up builds the
// sessions the sweeps use and each point can be timed. It is
// deterministic; the seed is unused.
const (
	sweepLo, sweepHi = 2, 100
	sweepLockAddr    = 0x40 // hmc-mutex's default lock block
	sweepMaxCycles   = 1_000_000
)

// sweepPreset is one evaluation preset with its Table VI row.
type sweepPreset struct {
	cfg      config.Config
	min, max uint64
	avg      string // MAX of the per-point averages, to two decimals
}

var sweepPresets = []sweepPreset{
	{config.FourLink4GB(), 6, 304, "154.98"},
	{config.EightLink8GB(), 6, 304, "154.86"},
}

// presetPoints is the number of simulations in one preset's sweep; a
// point is the workload's unit of work.
const presetPoints = sweepHi - sweepLo + 1

type sweepInst struct {
	workers int
	// pool holds one session per worker per preset, built at set-up.
	pool *workload.SessionPool
	// first[p] is preset p's warm-up sweep, and digest[p] its digest;
	// every later sweep of the preset must match it point for point.
	first  [][]workload.MutexRun
	digest []uint64
}

func openSweep(o *options) (instance, error) {
	inst := &sweepInst{workers: runtime.GOMAXPROCS(0)}
	inst.pool = workload.NewSessionPool(inst.workers)
	for _, pr := range sweepPresets {
		for w := 0; w < inst.workers; w++ {
			ss, err := workload.NewSession(pr.cfg)
			if err != nil {
				inst.close()
				return nil, err
			}
			inst.pool.Put(ss)
		}
	}
	return inst, nil
}

func (si *sweepInst) close() { si.pool.Drain() }

// sweep runs preset p's sweep, timing each point into lat, and checks it
// against the preset's Table VI row and the warm-up sweep's digest. It
// returns the simulated cycles: each point's MAX_CYCLE, the cycle its
// last thread finished.
func (si *sweepInst) sweep(p int, lat *hist) ([]workload.MutexRun, uint64, error) {
	pr := sweepPresets[p]
	var took [presetPoints]time.Duration // each point is written by one worker
	runs, err := workload.RunIndexedPooled(si.workers, presetPoints,
		func() (*workload.Session, error) { return si.pool.Get(pr.cfg) },
		func(ss *workload.Session, i int) (workload.MutexRun, error) {
			t0 := time.Now()
			run, err := ss.Mutex(sweepLo+i, sweepLockAddr)
			took[i] = time.Since(t0)
			return run, err
		},
		si.pool.Put)
	if err != nil {
		return nil, 0, err
	}
	res := workload.MutexSweepResult{Config: pr.cfg, Runs: runs}
	lo, hi, avg := res.TableVI()
	if lo != pr.min || hi != pr.max || fmt.Sprintf("%.2f", avg) != pr.avg {
		return nil, 0, fmt.Errorf("%v Table VI %d/%d/%.2f, want %d/%d/%s", pr.cfg, lo, hi, avg, pr.min, pr.max, pr.avg)
	}
	h := fnv.New64a()
	var cycles uint64
	for _, r := range res.Runs {
		fmt.Fprintf(h, "%d %d %d %x %d %d;", r.Threads, r.Min, r.Max, math.Float64bits(r.Avg), r.Trylocks, r.SendStalls)
		cycles += r.Max
	}
	if si.first[p] == nil {
		si.digest[p] = h.Sum64()
	} else if h.Sum64() != si.digest[p] {
		return nil, 0, fmt.Errorf("%v sweep digest %x differs from the first sweep's %x", pr.cfg, h.Sum64(), si.digest[p])
	}
	for _, d := range took {
		lat.add(d.Nanoseconds())
	}
	return res.Runs, cycles, nil
}

func (si *sweepInst) warm() error {
	si.first = make([][]workload.MutexRun, len(sweepPresets))
	si.digest = make([]uint64, len(sweepPresets))
	var lat hist
	for p := range sweepPresets {
		runs, _, err := si.sweep(p, &lat)
		if err != nil {
			return err
		}
		si.first[p] = runs
	}
	return nil
}

// run sweeps the presets in turn until the deadline.
func (si *sweepInst) run(until time.Time, t *tally) error {
	for p := 0; time.Now().Before(until); p = (p + 1) % len(sweepPresets) {
		t0 := time.Now()
		_, cycles, err := si.sweep(p, &t.lat)
		t.busy += time.Since(t0)
		t.ops += presetPoints
		if err != nil {
			t.failed += presetPoints
			continue
		}
		t.cycles += cycles
	}
	return nil
}

// sweepWorker is one worker's traced state.
type sweepWorker struct {
	c          simCounts
	wall       time.Duration
	points     uint64
	mismatches uint64
	err        error
	muts       []workload.MutexAgent
	agents     []workload.Agent
}

// mutexAgents returns fresh agents for one point, reusing the backing.
func (sw *sweepWorker) mutexAgents(threads int) []workload.Agent {
	if cap(sw.muts) < threads {
		sw.muts = make([]workload.MutexAgent, threads)
		sw.agents = make([]workload.Agent, threads)
	}
	sw.muts, sw.agents = sw.muts[:threads], sw.agents[:threads]
	for i := range sw.muts {
		sw.muts[i] = workload.MutexAgent{TID: uint64(i) + 1, Addr: sweepLockAddr}
		sw.agents[i] = &sw.muts[i]
	}
	return sw.agents
}

// point runs one sweep point twice on s: untraced through workload.Run
// as the reference, then traced through the twin, and compares them
// and the warm-up sweep's row for the point.
func (sw *sweepWorker) point(s *sim.Simulator, threads int, want workload.MutexRun) error {
	s.Reset()
	res, err := workload.Run(s, sw.mutexAgents(threads), sweepMaxCycles)
	if err != nil {
		return err
	}
	ref := fingerprint(s, res.CompletionCycles)

	t0 := time.Now()
	s.Reset()
	sw.c.reset += time.Since(t0)
	sw.c.resets++
	completion, err := runTwin(s, sw.mutexAgents(threads), sweepMaxCycles, &sw.c)
	sw.wall += time.Since(t0)
	if err != nil {
		return err
	}
	sw.c.addDevices(s)
	sw.points++

	var sum stats.Summary
	for _, c := range completion {
		sum.Add(c)
	}
	if !fingerprint(s, completion).equal(ref) ||
		sum.Min() != want.Min || sum.Max() != want.Max || sum.Avg() != want.Avg {
		sw.mismatches++
	}
	return nil
}

// traced sweeps the presets in turn through the twin until the
// deadline, spreading each sweep's points over one goroutine per worker,
// each on its own pooled sessions' simulators.
func (si *sweepInst) traced(until time.Time, t *tally) (*ledger, error) {
	ws := make([]*sweepWorker, si.workers)
	sims := make([][]*sim.Simulator, si.workers) // sims[w][p]: worker w's for preset p
	for w := range ws {
		ws[w] = &sweepWorker{}
		for _, pr := range sweepPresets {
			ss, err := si.pool.Get(pr.cfg)
			if err != nil {
				return nil, err
			}
			defer si.pool.Put(ss)
			// A point through the session binds the mutex operations, as
			// the untraced sweeps' first use does.
			if _, err := ss.Mutex(sweepLo, sweepLockAddr); err != nil {
				return nil, err
			}
			sims[w] = append(sims[w], ss.Sim())
		}
	}
	for p := 0; time.Now().Before(until); p = (p + 1) % len(sweepPresets) {
		next := make(chan int)
		var wg sync.WaitGroup
		for w, sw := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for threads := range next {
					if sw.err == nil {
						sw.err = sw.point(sims[w][p], threads, si.first[p][threads-sweepLo])
					}
				}
			}()
		}
		for threads := sweepLo; threads <= sweepHi; threads++ {
			next <- threads
		}
		close(next)
		wg.Wait()
	}
	var c simCounts
	var wall time.Duration
	var mismatches uint64
	for _, sw := range ws {
		if sw.err != nil {
			return nil, sw.err
		}
		c.add(&sw.c)
		wall += sw.wall
		mismatches += sw.mismatches
		t.ops += sw.points
	}
	t.busy = wall / time.Duration(si.workers)
	t.cycles = c.simCycles
	t.failed += mismatches
	return engineLedger(wall, &c), nil
}
