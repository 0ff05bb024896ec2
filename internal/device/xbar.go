package device

import "repro/internal/queue"

// Crossbar models the logic-layer switch connecting links to vaults. It
// keeps one request queue and one response queue per link (paper §V-B:
// "a logic-layer crossbar queue depth of 128 slots"); the additional
// queues of an 8-link device are the source of its extra buffering
// capacity — the mechanism the paper credits for the 8Link device's
// slightly better behaviour beyond fifty threads (§V-C).
//
// Each link's two crossbar queues live in that link's port, so a
// Crossbar is a statistics view over the device's ports. It reads an
// unbuilt port as the idle port it stands for, without building it.
type Crossbar struct{ d *Device }

// RqstStats returns the request-queue statistics for one link port.
func (x Crossbar) RqstStats(link int) queue.Stats {
	if p := x.d.ports[link]; p != nil {
		return p.xrqst.Stats()
	}
	return x.d.idleStats()
}

// RspStats returns the response-queue statistics for one link port.
func (x Crossbar) RspStats(link int) queue.Stats {
	if p := x.d.ports[link]; p != nil {
		return p.xrsp.Stats()
	}
	return x.d.idleStats()
}

// TotalOccupancy returns the summed occupancy of all crossbar queues.
func (x Crossbar) TotalOccupancy() int {
	n := 0
	for _, p := range x.d.ports {
		if p != nil {
			n += p.xrqst.Len() + p.xrsp.Len()
		}
	}
	return n
}

// idleStats returns the statistics of a queue that has been empty since
// cycle zero: what a port or vault not yet built reports.
func (d *Device) idleStats() queue.Stats {
	var q queue.Queue[*Flight]
	q.Init(1, &d.stats.Cycles)
	return q.Stats()
}
