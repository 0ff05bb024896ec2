package workload

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Session is a reusable simulator binding: one simulator constructed
// from (cfg, opts) that serves many workload runs, Reset in place
// between them instead of being rebuilt. Construction is the dominant
// per-point cost of a sweep (sim.New carves megabytes of queue backing
// and dozens of heap objects; the seed's MutexSweepSerial spent 815
// allocs per sweep on it), so the pooled sweep runners keep one Session
// per worker and recycle it across points.
//
// Every driver entry point has a Session form (Mutex, TicketMutex,
// RWLock, GUPS, Stream, BFS, Replay, BandwidthProbe); the package-level
// RunX functions construct a throwaway Session. Callers that need the
// simulator after a run (device reports, JTAG pokes, a final sample)
// build the Session themselves and keep Sim.
//
// Reuse contract: a Session is bit-identical to fresh construction only
// for option sets that satisfy sim.Reusable (no tracer, power model,
// metrics, sampler or span tracer — those bind per-construction state).
// The reset bit-identity suite pins this for all drivers, fault-free
// and under fault injection. CMC operations load once and stay loaded
// (they are stateless); the engine and agent scratch grow to the
// largest run and are reused. A Session is single-goroutine, like the
// simulator it wraps.
//
// Result.CompletionCycles returned from a Session run aliases session
// scratch and is valid only until the next run on the same Session; the
// shipped drivers aggregate it before returning.
type Session struct {
	sim  *sim.Simulator
	used bool
	// cfg and poolable support SessionPool recycling: only option-free
	// Sessions can be pooled (options are opaque closures a later Get
	// could not be matched against).
	cfg      config.Config
	poolable bool
	// cmc lists operation names already loaded into the simulator's CMC
	// tables (Load rejects duplicates; the list is a handful of entries,
	// so a linear scan beats a map).
	cmc []string

	// Engine scratch (runWith) reused across runs.
	state      []agentState
	completion []uint64
	agents     []Agent

	// Per-driver agent backing, grown to the largest run.
	muts    []MutexAgent
	ticks   []TicketAgent
	rws     []RWAgent
	gups    []GUPSAgent
	streams []StreamAgent
	bfss    []BFSAgent
}

// NewSession builds a simulator for cfg and wraps it for reuse. Options
// pass through to sim.New exactly as the RunX entry points do.
func NewSession(cfg config.Config, opts ...sim.Option) (*Session, error) {
	s, err := sim.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return &Session{sim: s, cfg: cfg, poolable: poolableOptions(opts)}, nil
}

// Sim exposes the underlying simulator (post-run reports, JTAG pokes).
func (ss *Session) Sim() *sim.Simulator { return ss.sim }

// begin readies the simulator for the next run of the given number of
// agents: Reset in place when the session has run before, and any CMC
// operations the driver needs that are not yet loaded. It returns the
// simulator for the driver body. A run without agents is refused before
// the session is touched.
func (ss *Session) begin(agents int, cmcNames ...string) (*sim.Simulator, error) {
	if agents < 1 {
		return nil, fmt.Errorf("workload: need at least one agent, got %d", agents)
	}
	if ss.used {
		ss.sim.Reset()
	}
	ss.used = true
	for _, name := range cmcNames {
		if !ss.hasCMC(name) {
			if err := ss.sim.LoadCMC(name); err != nil {
				return nil, err
			}
			ss.cmc = append(ss.cmc, name)
		}
	}
	return ss.sim, nil
}

func (ss *Session) hasCMC(name string) bool {
	for _, n := range ss.cmc {
		if n == name {
			return true
		}
	}
	return false
}

// run drives the engine over the session's pooled state/completion
// scratch — the allocation-free form of Run.
func (ss *Session) run(agents []Agent, maxCycles uint64) (Result, error) {
	n := len(agents)
	ss.state = grow(ss.state, n)
	clear(ss.state)
	ss.completion = grow(ss.completion, n)
	clear(ss.completion)
	return runWith(ss.sim, agents, maxCycles, ss.state, ss.completion)
}

// agentSlice returns the session's interface slice resized to n.
func (ss *Session) agentSlice(n int) []Agent {
	ss.agents = grow(ss.agents, n)
	return ss.agents
}

// grow returns s resized to n elements, reusing capacity. Growth at
// least doubles so a sweep over rising agent counts reallocates
// O(log n) times, not once per point. Callers overwrite every element,
// so surviving contents do not leak between runs.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n {
			c = n
		}
		return make([]T, n, c)
	}
	return s[:n]
}
