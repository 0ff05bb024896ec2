package device

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hmccmd"
)

// Report is a human-readable utilization summary of one device: the
// execution mix, stall/backpressure counters, queue pressure and the
// load balance across vaults.
type Report struct {
	// Dev is the device ID; Cycles its clock.
	Dev    int
	Cycles uint64
	// Stats is the raw counter snapshot.
	Stats Stats
	// VaultOps is the per-vault executed-request count.
	VaultOps []uint64
	// MaxVaultQueue is the highest vault request-queue occupancy seen.
	MaxVaultQueue int
	// AvgLinkRqstOcc is the mean occupancy across link request queues.
	AvgLinkRqstOcc float64
}

// BuildReport snapshots the device's utilization.
func (d *Device) BuildReport() Report {
	r := Report{Dev: d.ID, Cycles: d.cycle, Stats: d.stats}
	r.VaultOps = make([]uint64, len(d.vaults))
	for i, v := range d.vaults {
		if v == nil {
			continue // no request reached it: zero ops
		}
		st := v.RqstStats()
		r.VaultOps[i] = st.Pops
		if st.MaxOccupancy > r.MaxVaultQueue {
			r.MaxVaultQueue = st.MaxOccupancy
		}
	}
	var sum float64
	for _, p := range d.ports {
		if p != nil { // an unbuilt port's mean occupancy is zero
			sum += p.RqstStats().AvgOccupancy()
		}
	}
	if len(d.ports) > 0 {
		r.AvgLinkRqstOcc = sum / float64(len(d.ports))
	}
	return r
}

// LoadImbalance returns the ratio of the busiest vault's request count to
// the mean (1.0 = perfectly balanced; the paper's single-lock hot spot
// approaches the vault count).
func (r Report) LoadImbalance() float64 {
	if len(r.VaultOps) == 0 {
		return 0
	}
	var total, max uint64
	for _, ops := range r.VaultOps {
		total += ops
		if ops > max {
			max = ops
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.VaultOps))
	return float64(max) / mean
}

// OpsPerCycle returns executed requests per device cycle, or 0 for a
// device that was never clocked.
func (r Report) OpsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalOps()) / float64(r.Cycles)
}

// TotalOps returns the total executed requests.
func (r Report) TotalOps() uint64 {
	var total uint64
	for _, ops := range r.VaultOps {
		total += ops
	}
	return total
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "device %d: %d cycles, %d requests executed, %d responses\n",
		r.Dev, r.Cycles, r.TotalOps(), r.Stats.Rsps)

	// Execution mix by class, densest first.
	type classCount struct {
		class hmccmd.Class
		n     uint64
	}
	var mix []classCount
	for c := hmccmd.Class(0); int(c) < len(r.Stats.Rqsts); c++ {
		if n := r.Stats.Rqsts[c]; n > 0 {
			mix = append(mix, classCount{c, n})
		}
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].n > mix[j].n })
	fmt.Fprintf(&b, "  mix:")
	for _, m := range mix {
		fmt.Fprintf(&b, " %v=%d", m.class, m.n)
	}
	fmt.Fprintln(&b)

	fmt.Fprintf(&b, "  stalls: send=%d xbar=%d rsp=%d linkser=%d bank=%d retries=%d errors=%d\n",
		r.Stats.SendStalls, r.Stats.XbarBackpressure, r.Stats.RspBackpressure,
		r.Stats.LinkSerStalls, r.Stats.BankConflicts, r.Stats.LinkRetries, r.Stats.ErrResponses)
	if s := r.Stats; s.CRCErrors+s.Drops+s.DownWindows+s.RetryBufStalls+s.PoisonedRqsts > 0 {
		fmt.Fprintf(&b, "  reliability: crc errors=%d drops=%d down windows=%d retry-buffer stalls=%d poisoned=%d\n",
			s.CRCErrors, s.Drops, s.DownWindows, s.RetryBufStalls, s.PoisonedRqsts)
	}
	fmt.Fprintf(&b, "  queues: max vault occupancy=%d, avg link rqst occupancy=%.2f\n",
		r.MaxVaultQueue, r.AvgLinkRqstOcc)
	fmt.Fprintf(&b, "  vault load imbalance: %.2fx (busiest/mean)\n", r.LoadImbalance())
	if r.Stats.RowHits+r.Stats.RowMisses > 0 {
		fmt.Fprintf(&b, "  row buffer: %d hits / %d misses\n", r.Stats.RowHits, r.Stats.RowMisses)
	}
	return b.String()
}
