package device

import (
	"repro/internal/config"
	"repro/internal/queue"
)

// Crossbar models the logic-layer switch connecting links to vaults. It
// keeps one request queue and one response queue per link (paper §V-B:
// "a logic-layer crossbar queue depth of 128 slots"); the additional
// queues of an 8-link device are the source of its extra buffering
// capacity — the mechanism the paper credits for the 8Link device's
// slightly better behaviour beyond fifty threads (§V-C).
//
// The queues are held by value with lazily materialized ring buffers;
// callers index them through pointers (&x.rqst[i]) so statistics
// accumulate in place.
type Crossbar struct {
	rqst []queue.Queue[*Flight]
	rsp  []queue.Queue[*Flight]
}

func (x *Crossbar) init(cfg config.Config, cycles *uint64) {
	x.rqst = make([]queue.Queue[*Flight], cfg.Links)
	x.rsp = make([]queue.Queue[*Flight], cfg.Links)
	for i := 0; i < cfg.Links; i++ {
		x.rqst[i].Init(cfg.XbarDepth, cycles)
		x.rsp[i].Init(cfg.XbarDepth, cycles)
	}
}

// RqstStats returns the request-queue statistics for one link port.
func (x *Crossbar) RqstStats(link int) queue.Stats { return x.rqst[link].Stats() }

// RspStats returns the response-queue statistics for one link port.
func (x *Crossbar) RspStats(link int) queue.Stats { return x.rsp[link].Stats() }

// TotalOccupancy returns the summed occupancy of all crossbar queues.
func (x *Crossbar) TotalOccupancy() int {
	n := 0
	for i := range x.rqst {
		n += x.rqst[i].Len() + x.rsp[i].Len()
	}
	return n
}
