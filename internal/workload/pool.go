package workload

import (
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/sim"
)

// SessionPool recycles idle Sessions across runs, keyed by device
// configuration. Where a single Session amortizes simulator
// construction across the points of ONE sweep, the pool amortizes it
// across sweeps: Put parks a finished Session instead of abandoning it,
// and the next Get for the same configuration returns it Reset-in-place
// — so repeated sweeps are construction-free after warmup. With the
// shared pool MutexSweepSerial allocates under 1 KB per sweep; building
// a Session per sweep instead costs about 30 KB (EXPERIMENTS.md). The
// session server keeps its own pool of simulators (server.simPool).
//
// Only option-free Sessions are poolable: options are closures that
// cannot be compared, so a pooled Session could not be matched to a
// later Get's option set. NewSession marks Sessions built with options
// as unpoolable and Put simply drops them — callers need no check.
//
// The pool holds at most Cap idle Sessions per configuration (the
// cheapest bound that keeps a burst of concurrent sweeps from pinning
// unbounded queue backing); overflow Sessions are dropped.
// A pooled Session is bit-identical to a fresh one by the Reset
// bit-identity suite's guarantee, with one visible difference shared
// with all Session reuse: CMC operations loaded by a previous tenant
// remain loaded (they are stateless, and Session.begin loads
// idempotently).
type SessionPool struct {
	mu   sync.Mutex
	cap  int
	idle map[config.Config][]*Session
}

// DefaultPoolCap is the per-configuration idle cap used when
// NewSessionPool is given max <= 0: enough for one pooled sweep's
// worker fleet on typical hosts without pinning queue backing for
// hundreds of idle simulators.
const DefaultPoolCap = 16

// NewSessionPool builds a pool holding at most max idle Sessions per
// configuration (max <= 0 selects DefaultPoolCap).
func NewSessionPool(max int) *SessionPool {
	if max <= 0 {
		max = DefaultPoolCap
	}
	return &SessionPool{cap: max, idle: make(map[config.Config][]*Session)}
}

// Get returns an idle Session for cfg, or constructs one when the pool
// has none. The returned Session behaves exactly like NewSession(cfg):
// its first run Resets any recycled state in place.
func (p *SessionPool) Get(cfg config.Config) (*Session, error) {
	p.mu.Lock()
	if ss := p.idle[cfg]; len(ss) > 0 {
		s := ss[len(ss)-1]
		p.idle[cfg] = ss[:len(ss)-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	return NewSession(cfg)
}

// Put parks an idle Session for reuse. Unpoolable Sessions (built with
// options) and overflow beyond the per-configuration cap are dropped,
// so Put is always the right way to finish with a Session. The Session
// must not be used after Put.
func (p *SessionPool) Put(ss *Session) {
	if ss == nil || !ss.poolable {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[ss.cfg]) < p.cap {
		p.idle[ss.cfg] = append(p.idle[ss.cfg], ss)
	}
}

// Idle reports the number of parked Sessions across all configurations.
func (p *SessionPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ss := range p.idle {
		n += len(ss)
	}
	return n
}

// Drain drops every idle Session, releasing their queue backing to the
// garbage collector. Sessions currently checked out are unaffected.
func (p *SessionPool) Drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.idle)
}

// sweepSessions is the package's shared pool feeding the sweep
// runners: option-free sweeps draw their per-worker Sessions here, so
// back-to-back sweeps (benchmark loops, the paper CLIs running both
// presets, server-driven parameter studies) reuse simulators instead
// of rebuilding one fleet per sweep.
var sweepSessions = NewSessionPool(2 * runtime.NumCPU())

// poolableOptions reports whether an option set can draw from the
// shared pool: only the empty set is, since options are opaque
// closures that cannot be matched against a pooled Session's.
func poolableOptions(opts []sim.Option) bool { return len(opts) == 0 }
