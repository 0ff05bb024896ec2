package workload

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/sim"
)

// sweepWorkers resolves a requested worker count: <= 0 means one per
// schedulable core (GOMAXPROCS, not NumCPU — a containerized or
// taskset-restricted process should not oversubscribe itself), and any
// request collapses to serial on a single-proc host, where goroutine
// fan-out only adds scheduling overhead to a CPU-bound sweep.
func sweepWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	return workers
}

// RunIndexed executes n independent jobs across a bounded pool of
// workers and returns the results in index order. workers <= 0 selects
// one worker per schedulable core (GOMAXPROCS); on a single-proc host
// the jobs run serially on the calling goroutine regardless of the
// requested count. Errors do not cancel in-flight jobs; if several jobs
// fail, the error of the lowest index is returned, so the outcome is
// deterministic regardless of scheduling.
//
// Sweep points are embarrassingly parallel — each builds its own
// simulator, memory and agents — which is what makes regenerating the
// paper's Figures 5-7 (hundreds of full simulations) scale with host
// cores.
func RunIndexed[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	return RunIndexedPooled(workers, n,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) (T, error) { return job(i) },
		nil)
}

// RunIndexedPooled is RunIndexed with per-worker state: newW constructs
// one W per worker before any job runs, job receives the worker's W
// alongside the index, and closeW (optional) releases each W after the
// pool drains. This is the sweep engine's reuse hook — a W wrapping a
// workload.Session turns a sweep from simulator-per-point into
// simulator-per-worker, which removes construction from the per-point
// cost entirely.
//
// Construction is serial and fail-fast: an error from newW closes the
// already-built workers and aborts before any job runs. Worker i's W is
// used by exactly one goroutine at a time, so W needs no locking.
func RunIndexedPooled[W, T any](workers, n int, newW func() (W, error), job func(w W, i int) (T, error), closeW func(W)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = sweepWorkers(workers, n)
	results := make([]T, n)
	if workers == 1 {
		w, err := newW()
		if err != nil {
			return nil, err
		}
		if closeW != nil {
			defer closeW(w)
		}
		for i := 0; i < n; i++ {
			r, err := job(w, i)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}
	ws := make([]W, 0, workers)
	for i := 0; i < workers; i++ {
		w, err := newW()
		if err != nil {
			if closeW != nil {
				for _, prev := range ws {
					closeW(prev)
				}
			}
			return nil, err
		}
		ws = append(ws, w)
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if closeW != nil {
				defer closeW(w)
			}
			for i := range next {
				results[i], errs[i] = job(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// MutexSweepParallel runs the mutex sweep with the given worker count
// (<= 0 means one per schedulable core). Each worker reuses one
// simulator session across its share of the thread counts (Reset in
// place between points), so results — including every cycle count and
// statistic — are identical to the serial sweep and to per-point fresh
// construction; only wall time and allocation change.
func MutexSweepParallel(cfg config.Config, lo, hi int, lockAddr uint64, workers int, opts ...sim.Option) (MutexSweepResult, error) {
	return MutexSweepWithProgress(cfg, lo, hi, lockAddr, workers, nil, opts...)
}

// MutexSweepWithProgress is MutexSweepParallel with a completion hook:
// progress (when non-nil) is called once per finished sweep point, from
// whichever worker goroutine finished it, so it must be safe for
// concurrent use. The hmc-bench command feeds its live metrics endpoint
// from this hook (aggregate counters only — a sweep visits thousands of
// points, too many to register individually).
//
// Session reuse engages only for option sets sim.Reusable accepts;
// construction-bound options (tracing, power, metrics) fall back to a
// fresh simulator per point, preserving their per-construction
// semantics.
func MutexSweepWithProgress(cfg config.Config, lo, hi int, lockAddr uint64, workers int, progress func(MutexRun), opts ...sim.Option) (MutexSweepResult, error) {
	out := MutexSweepResult{Config: cfg}
	if lo < 1 || hi < lo {
		return out, fmt.Errorf("workload: mutex sweep needs 1 <= lo <= hi, got lo=%d hi=%d", lo, hi)
	}
	n := hi - lo + 1
	point := func(ss *Session, i int) (MutexRun, error) {
		var run MutexRun
		var err error
		if ss != nil {
			run, err = ss.Mutex(lo+i, lockAddr)
		} else {
			run, err = RunMutex(cfg, lo+i, lockAddr, opts...)
		}
		if err != nil {
			return run, fmt.Errorf("threads=%d: %w", lo+i, err)
		}
		if progress != nil {
			progress(run)
		}
		return run, nil
	}
	var runs []MutexRun
	var err error
	switch {
	case poolableOptions(opts):
		// Option-free sweeps draw their per-worker Sessions from the
		// shared pool, so repeated sweeps reuse simulators instead of
		// rebuilding one fleet each — the residual per-sweep allocation
		// (97% of it was device.New) goes to zero after warmup.
		runs, err = RunIndexedPooled(workers, n,
			func() (*Session, error) { return sweepSessions.Get(cfg) },
			point,
			func(ss *Session) { sweepSessions.Put(ss) })
	case sim.Reusable(opts...):
		runs, err = RunIndexedPooled(workers, n,
			func() (*Session, error) { return NewSession(cfg, opts...) },
			point,
			nil)
	default:
		runs, err = RunIndexed(workers, n, func(i int) (MutexRun, error) {
			return point(nil, i)
		})
	}
	if err != nil {
		return out, err
	}
	out.Runs = runs
	return out, nil
}
