// Package metrics is the simulator's unified observability layer: a
// registry of named, labeled instruments that every component reports
// through — the uniform stats interface the evaluation harness, the
// cycle-indexed sampler, and the live introspection endpoint all read
// from one place.
//
// # Instruments
//
// Two styles of instrument coexist:
//
//   - Push instruments — Counter, Gauge and Histogram — are updated by
//     the instrumented code itself. Their hot paths (Inc, Add, Set,
//     Observe) are single atomic operations on pre-registered objects:
//     ZERO heap allocations per call, safe for concurrent use, cheap
//     enough for per-request paths. All allocation happens once, at
//     registration time.
//
//   - Pull instruments — CounterFunc and GaugeFunc — wrap a closure that
//     is evaluated only when the registry is read (a sampler tick, a
//     /metrics scrape, a report). They add literally nothing to the hot
//     path, which is how the device exposes its existing lifetime
//     counters and queue occupancies without perturbing the
//     zero-allocation clock loop.
//
// Func instruments that read simulator state are not synchronized with
// the simulation goroutine; scrapes concurrent with a running simulation
// see approximately current values. Read from the host goroutine (or
// after the run) when exact values matter.
//
// # Naming
//
// Metric names follow the Prometheus convention ([a-zA-Z_][a-zA-Z0-9_]*,
// cumulative counters suffixed _total); labels distinguish instances
// (dev, link, class, dir). Registering the same name+label set twice
// returns the same instrument; registering one name with two different
// instrument kinds panics — both are programming errors caught at setup
// time, never on the hot path.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind enumerates the instrument kinds a registry holds.
type Kind uint8

// Instrument kinds.
const (
	// KindCounter is a monotonically increasing atomic count.
	KindCounter Kind = iota
	// KindGauge is a settable signed level.
	KindGauge
	// KindHistogram is an atomic power-of-two latency/size distribution.
	KindHistogram
	// KindCounterFunc is a lazily read cumulative count.
	KindCounterFunc
	// KindGaugeFunc is a lazily read level.
	KindGaugeFunc
)

var kindNames = [...]string{"counter", "gauge", "histogram", "counterfunc", "gaugefunc"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// prometheusType maps the kind onto a Prometheus metric type.
func (k Kind) prometheusType() string {
	switch k {
	case KindCounter, KindCounterFunc:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Counter is a monotonically increasing counter. Inc and Add are
// lock-free, allocation-free and safe for concurrent use. The zero value
// is ready.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable level. Set, Add and Value are lock-free,
// allocation-free and safe for concurrent use. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates samples into the same power-of-two buckets as
// stats.Histogram, plus count, sum and min/max — everything needed to
// report the paper's MIN/MAX/AVG_CYCLE metrics per instrument. Observe
// is lock-free and allocation-free: one atomic add per bucket/sum/count
// and two bounded CAS loops for the extrema.
//
// Histograms must be obtained from NewHistogram or Registry.Histogram
// (the zero value mis-tracks Min).
type Histogram struct {
	buckets [stats.NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64 // initialized to MaxUint64
	max     atomic.Uint64
}

// NewHistogram returns a ready histogram.
func NewHistogram() *Histogram {
	h := new(Histogram)
	h.min.Store(^uint64(0))
	return h
}

// Observe records one sample. Zero allocations; safe for concurrent use.
func (h *Histogram) Observe(v uint64) {
	h.buckets[stats.BucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Snapshot returns a consistent-enough copy for reporting. (Fields are
// loaded individually; a snapshot taken concurrently with Observe calls
// may be mid-update by one sample, which reporting tolerates.)
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	// Count and Sum aggregate all observed samples; Min and Max are the
	// extrema (0 with no samples).
	Count, Sum, Min, Max uint64
	// Buckets are the power-of-two counts (stats.BucketOf layout).
	Buckets [stats.NumBuckets]uint64
}

// Avg returns the mean sample, or 0 with no samples (the zero-sample
// guard every ratio in this layer applies).
func (s HistSnapshot) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Hist converts the snapshot into a stats.Histogram for its reporting
// helpers (String, Percentile, Bucket).
func (s HistSnapshot) Hist() stats.Histogram {
	return stats.HistogramFromBuckets(s.Buckets)
}

// Metric is one registered instrument with its identity.
type Metric struct {
	name   string
	labels []Label // sorted by key
	key    string  // canonical name{k=v,...}
	kind   Kind

	c  *Counter
	g  *Gauge
	h  *Histogram
	cf func() uint64
	gf func() float64
}

// Key returns the canonical identity string, "name{k=v,k2=v2}" ("name"
// with no labels) — the key the sampler and exporters index by.
func (m *Metric) Key() string { return m.key }

// Number returns the instrument's current scalar value. Histograms have
// no single scalar; Number returns their sample count.
func (m *Metric) Number() float64 {
	switch m.kind {
	case KindCounter:
		return float64(m.c.Value())
	case KindGauge:
		return float64(m.g.Value())
	case KindCounterFunc:
		return float64(m.cf())
	case KindGaugeFunc:
		return m.gf()
	default:
		return float64(m.h.count.Load())
	}
}

// Histogram returns the histogram snapshot and true for histogram
// instruments, and a zero snapshot and false otherwise.
func (m *Metric) Histogram() (HistSnapshot, bool) {
	if m.kind != KindHistogram {
		return HistSnapshot{}, false
	}
	return m.h.Snapshot(), true
}

// Registry holds a set of named instruments. Registration (the
// Counter/Gauge/Histogram/...Func methods) locks and may allocate; it
// belongs in setup code. The instruments themselves are lock-free.
// A Registry must not be copied after first use.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]*Metric
	kinds map[string]Kind // per-name kind consistency
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*Metric{}, kinds: map[string]Kind{}}
}

// canonKey builds the canonical identity and returns the sorted label
// copy it was built from.
func canonKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String(), ls
}

// validName reports whether name fits the Prometheus identifier grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register get-or-creates the metric for (name, labels); build constructs
// the instrument on first registration. Kind mismatches panic: they are
// setup-time programming errors, like an invalid queue capacity.
func (r *Registry) register(name string, kind Kind, labels []Label, build func(m *Metric)) *Metric {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	key, sorted := canonKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", key, kind, m.kind))
		}
		return m
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("metrics: %s registered as both %v and %v", name, k, kind))
	}
	m := &Metric{name: name, labels: sorted, key: key, kind: kind}
	build(m)
	r.byKey[key] = m
	r.kinds[name] = kind
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.register(name, KindCounter, labels, func(m *Metric) { m.c = new(Counter) }).c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.register(name, KindGauge, labels, func(m *Metric) { m.g = new(Gauge) }).g
}

// Histogram registers (or finds) a histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.register(name, KindHistogram, labels, func(m *Metric) { m.h = NewHistogram() }).h
}

// CounterFunc registers a pull-style cumulative count read from fn at
// collection time. Re-registering the same name+labels keeps the first
// function.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	r.register(name, KindCounterFunc, labels, func(m *Metric) { m.cf = fn })
}

// GaugeFunc registers a pull-style level read from fn at collection time.
// Re-registering the same name+labels keeps the first function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.register(name, KindGaugeFunc, labels, func(m *Metric) { m.gf = fn })
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byKey)
}

// Each calls fn for every registered instrument in canonical key order
// (deterministic across runs). Registration from within fn deadlocks.
func (r *Registry) Each(fn func(m *Metric)) {
	r.mu.RLock()
	ms := make([]*Metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		ms = append(ms, m)
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
	for _, m := range ms {
		fn(m)
	}
}

// Lookup returns the instrument registered under the exact name+labels,
// or nil.
func (r *Registry) Lookup(name string, labels ...Label) *Metric {
	key, _ := canonKey(name, labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byKey[key]
}

// MetricName splits a canonical key ("name{k=v}") back into its bare
// metric name — what sampler consumers group deltas by.
func MetricName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
