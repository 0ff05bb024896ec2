package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Sample is one cycle-indexed snapshot of a registry — the unit of the
// sampler's output stream and of ParseSamples' input.
type Sample struct {
	// Cycle is the device cycle the snapshot was taken on.
	Cycle uint64 `json:"cycle"`
	// Tags are the run's static dimensions (config, threads, ...), fixed
	// at sampler construction.
	Tags map[string]string `json:"tags,omitempty"`
	// Values maps canonical metric keys to scalar values (counters
	// cumulative since run start, gauges instantaneous).
	Values map[string]float64 `json:"values,omitempty"`
	// Hists maps canonical metric keys to histogram summaries
	// (cumulative since run start).
	Hists map[string]HistSummary `json:"hists,omitempty"`
}

// HistSummary is the wire form of a histogram snapshot: enough to
// tabulate the paper's MIN/MAX/AVG_CYCLE metrics from a sample stream.
type HistSummary struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
}

// Avg returns the mean sample, or 0 with no samples.
func (h HistSummary) Avg() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Sampler periodically snapshots a registry into a cycle-indexed
// time-series stream — the data behind the paper's Figures 5-7 style
// plots (queue occupancy, bandwidth, power draw over time), producible
// from a single run.
//
// A clock driver asks Next for the next sampling cycle, clocks up to it
// in one span and then calls MaybeSample, so the sampler costs the clock
// one call per span and not one per cycle; idle spans still skip
// ahead. Sample cycles serialize the registry (locking and allocating);
// amortize with the period.
//
// A Sampler is safe for concurrent use (samples are written atomically
// under a mutex), so several instrumented runs may share one output
// stream, distinguished by tags.
type Sampler struct {
	mu    sync.Mutex
	reg   *Registry
	w     *bufio.Writer
	enc   *json.Encoder
	every uint64
	tags  map[string]string
	err   error
}

// SamplerOption configures a Sampler.
type SamplerOption func(*Sampler)

// WithTags attaches static tags emitted in every sample.
func WithTags(tags ...Label) SamplerOption {
	return func(s *Sampler) {
		if s.tags == nil {
			s.tags = map[string]string{}
		}
		for _, t := range tags {
			s.tags[t.Key] = t.Value
		}
	}
}

// NewSampler returns a sampler snapshotting reg into w as JSONL (one
// Sample object per line, read back by ParseSamples) every `every`
// cycles (0 disables periodic sampling; explicit Sample calls still
// work).
func NewSampler(reg *Registry, w io.Writer, every uint64, opts ...SamplerOption) *Sampler {
	bw := bufio.NewWriter(w)
	s := &Sampler{reg: reg, w: bw, enc: json.NewEncoder(bw), every: every}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Next returns the first sampling cycle after cycle, or the largest
// uint64 when periodic sampling is off. A clock driver ends each span
// on it.
func (s *Sampler) Next(cycle uint64) uint64 {
	if s.every == 0 || cycle > math.MaxUint64-s.every {
		return math.MaxUint64
	}
	return cycle - cycle%s.every + s.every
}

// MaybeSample snapshots the registry when cycle lands on the sampling
// period. Simulators call it at the end of every clocked span.
func (s *Sampler) MaybeSample(cycle uint64) {
	if s.every == 0 || cycle%s.every != 0 {
		return
	}
	s.Sample(cycle)
}

// Sample snapshots the registry unconditionally — how a driver records
// the final state of a run whose last cycle does not land on the period.
func (s *Sampler) Sample(cycle uint64) {
	smp := Sample{
		Cycle:  cycle,
		Tags:   s.tags,
		Values: map[string]float64{},
		Hists:  map[string]HistSummary{},
	}
	s.reg.Each(func(m *Metric) {
		if h, ok := m.Histogram(); ok {
			smp.Hists[m.key] = HistSummary{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
			return
		}
		smp.Values[m.key] = m.Number()
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(smp)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Flush drains buffered samples to the underlying writer and reports the
// first write error encountered, if any.
func (s *Sampler) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// ParseSamples reads back a JSONL sample stream written by a Sampler.
func ParseSamples(r io.Reader) ([]Sample, error) {
	var out []Sample
	dec := json.NewDecoder(r)
	for {
		var s Sample
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("metrics: parsing sample record %d: %w", len(out), err)
		}
		out = append(out, s)
	}
}

// Conventional metric names the interval report understands. Components
// registered through Device.RegisterMetrics and power.Model.RegisterMetrics
// use these; README's "Observability" section documents the schema.
const (
	// NameLinkFlits counts FLITs serialized across host links
	// (labels: dev, dir=rqst|rsp).
	NameLinkFlits = "hmc_link_flits_total"
	// NameRqsts counts executed requests (labels: dev, class).
	NameRqsts = "hmc_device_rqsts_total"
	// NameLinkRqstOcc / NameLinkRspOcc are instantaneous link queue
	// occupancies (labels: dev, link).
	NameLinkRqstOcc = "hmc_link_rqst_occupancy"
	NameLinkRspOcc  = "hmc_link_rsp_occupancy"
	// NameVaultOccTotal is the summed instantaneous vault request queue
	// occupancy (label: dev).
	NameVaultOccTotal = "hmc_vault_rqst_occupancy_total"
	// NamePowerTotal is the cumulative energy estimate in picojoules.
	NamePowerTotal = "hmc_power_total_pj"
)

// sumByName sums a sample's scalar values across all label variants of
// one metric name.
func sumByName(s Sample, name string) float64 {
	var total float64
	for k, v := range s.Values {
		if MetricName(k) == name {
			total += v
		}
	}
	return total
}

// tagKey builds a deterministic group identity from a sample's tags.
func tagKey(tags map[string]string) string {
	if len(tags) == 0 {
		return ""
	}
	parts := make([]string, 0, len(tags))
	for k, v := range tags {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// IntervalReport tabulates a sample stream per interval: executed
// requests, link bandwidth (from the FLIT counters), queue occupancy and
// power draw between consecutive samples, one table per distinct tag
// set, followed by the final histogram summaries (the per-thread
// MIN/MAX/AVG_CYCLE view). clockGHz converts cycles to time for the
// bandwidth and power columns.
func IntervalReport(samples []Sample, clockGHz float64) string {
	var b strings.Builder
	if len(samples) == 0 {
		return "no samples\n"
	}
	groups := map[string][]Sample{}
	var order []string
	for _, s := range samples {
		k := tagKey(s.Tags)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	for gi, k := range order {
		if gi > 0 {
			fmt.Fprintln(&b)
		}
		if k != "" {
			fmt.Fprintf(&b, "run: %s\n", k)
		}
		g := groups[k]
		sort.Slice(g, func(i, j int) bool { return g[i].Cycle < g[j].Cycle })
		fmt.Fprintf(&b, "%-12s %-8s %-10s %-12s %-10s %-10s %-10s\n",
			"cycle", "dcyc", "rqsts", "linkGB/s", "linkOcc", "vaultOcc", "powerW")
		for i := 1; i < len(g); i++ {
			prev, cur := g[i-1], g[i]
			dcyc := cur.Cycle - prev.Cycle
			if dcyc == 0 {
				continue
			}
			drqst := sumByName(cur, NameRqsts) - sumByName(prev, NameRqsts)
			dflits := sumByName(cur, NameLinkFlits) - sumByName(prev, NameLinkFlits)
			if dflits < 0 {
				dflits = 0 // counters reset between runs sharing a tag set
			}
			bw := stats.LinkBandwidthGBs(uint64(dflits), dcyc, clockGHz)
			linkOcc := sumByName(cur, NameLinkRqstOcc) + sumByName(cur, NameLinkRspOcc)
			vaultOcc := sumByName(cur, NameVaultOccTotal)
			dpj := sumByName(cur, NamePowerTotal) - sumByName(prev, NamePowerTotal)
			seconds := float64(dcyc) / (clockGHz * 1e9)
			watts := dpj * 1e-12 / seconds
			fmt.Fprintf(&b, "%-12d %-8d %-10.0f %-12.2f %-10.0f %-10.0f %-10.3f\n",
				cur.Cycle, dcyc, drqst, bw, linkOcc, vaultOcc, watts)
		}
		last := g[len(g)-1]
		hk := sortedKeys(last.Hists)
		for _, name := range hk {
			h := last.Hists[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s: n=%d min=%d max=%d avg=%.2f\n",
				name, h.Count, h.Min, h.Max, h.Avg())
		}
	}
	return b.String()
}
