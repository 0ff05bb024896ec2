package device

import (
	"repro/internal/packet"
	"repro/internal/queue"
)

// Reset returns the device to its as-constructed state without
// reallocating any of it — the enabling primitive for reusable
// simulator sessions (sweeps build thousands of device instances; see
// workload.Session). Every run-visible structure is rewound in place:
//
//   - queues: drained (in-flight packets recycle into the device pools)
//     and their occupancy statistics cleared, and every activity mask
//     with them; the ring buffers and the sample-counter wiring survive.
//   - link retry state: both directions' SEQ/FRP rings (built only
//     with a fault plan), traversal counters, park and down windows, in
//     the ports that exist (a port is built when a request is first
//     sent on its link; an unbuilt one has nothing to clear).
//   - vaults: bank availability/open-row state and per-bank op counts,
//     in the vaults and bank arrays that exist (a vault is built when a
//     request is first routed to it and allocates its banks on its
//     first in-range request; an untouched vault has none to clear).
//   - register file: power-on values for the device configuration.
//   - backing store: block-cleared in place (mem.Store.Zero), keeping
//     materialized pages warm for the next run.
//   - stats and the cycle counter: zeroed (in place, so the queues'
//     sample-counter pointer stays valid).
//   - fault injectors: reseeded to the start of their original streams,
//     so a reused device observes the identical fault sequence.
//
// Deliberately retained: the CMC registration table (operations are
// stateless; reloading them is the session's concern) and its slot
// array, the flight and response free lists, the built ports, vaults
// and bank arrays, scratch buffers, the attached observers, and
// any registered metrics instruments (which accumulate across runs —
// reusable sessions are built without metrics). After Reset the device
// is indistinguishable, in every statistic and every packet it emits,
// from a freshly constructed one with the same CMC table (the reset
// bit-identity suite pins this).
func (d *Device) Reset() {
	for _, p := range d.ports {
		if p == nil {
			continue
		}
		d.drainQueue(&p.rqst)
		d.drainQueue(&p.rsp)
		d.drainQueue(&p.xrqst)
		d.drainQueue(&p.xrsp)
		p.reset()
		if d.faultPlan.Enabled() {
			stream := d.faultStream(p.ID)
			p.rqstDir.inj.Reset(d.faultPlan, stream)
			p.rspDir.inj.Reset(d.faultPlan, stream|1)
		}
	}
	for _, v := range d.vaults {
		if v != nil {
			d.drainQueue(&v.rqst)
			d.drainQueue(&v.rsp)
			clear(v.banks)
		}
	}
	d.linkRqst, d.linkRsp, d.xbarRqst, d.xbarRsp, d.vaultRqst, d.vaultRsp = 0, 0, 0, 0, 0, 0
	d.cycle = 0
	d.stats = Stats{}
	d.regs.reset(d.Cfg)
	d.store.Zero()
}

// Trim releases the reusable capacity Reset deliberately keeps warm,
// shrinking an idle device toward its freshly built footprint: the
// backing store's materialized pages scrub back to the process-wide page
// pool, and the flight and response free lists, the ports, the vaults
// with their bank arrays, an empty CMC slot array and the CMC scratch
// context are dropped. Call it after Reset on a device headed for an
// idle pool — a parked session then costs only its structural
// allocations, and the first run after revival re-materializes capacity
// on demand (first writes draw from the same shared pool the trim fed).
// After Reset, Trim touches no run-visible state, so Reset+Trim stays
// bit-identical to a fresh device; mid-run it would discard live store
// pages, bank timing and queued packets. A response the host still
// holds may be released afterwards: it rejoins the emptied list.
func (d *Device) Trim() {
	d.store.Trim()
	d.flights = nil
	d.rsps = packet.RspList{}
	d.cmcCtx = nil
	clear(d.ports)
	clear(d.vaults)
	d.cmcTab.Trim()
}

// drainQueue empties one flight queue into the device pools and clears
// its statistics.
func (d *Device) drainQueue(q *queue.Queue[*Flight]) {
	for {
		f, ok := q.Pop()
		if !ok {
			break
		}
		d.recycleFlight(f)
	}
	q.Reset()
}

// recycleFlight returns a flight and the response it may carry to their
// free lists.
func (d *Device) recycleFlight(f *Flight) {
	packet.PutRsp(f.Rsp)
	d.putFlight(f)
}
