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
//     and their occupancy statistics cleared; the ring buffers and the
//     sample-base wiring survive.
//   - link retry state: both directions' SEQ/FRP rings, traversal
//     counters, park and down windows.
//   - vaults: bank availability/open-row state and per-bank op counts.
//   - register file: power-on values for the device configuration.
//   - backing store: block-cleared in place (mem.Store.Zero), keeping
//     materialized pages warm for the next run.
//   - stats and the cycle counter: zeroed (in place, so the queues'
//     sample-base pointer stays valid).
//   - fault injectors: reseeded to the start of their original streams,
//     so a reused device observes the identical fault sequence.
//
// Deliberately retained: the CMC registration table (operations are
// stateless; reloading them is the session's concern), the flight and
// request free lists, scratch buffers, the tracer, and any registered
// metrics instruments (which accumulate across runs — reusable sessions
// are built without metrics). After Reset the device is
// indistinguishable, in every statistic and every packet it emits, from
// a freshly constructed one with the same CMC
// table (the reset bit-identity suite pins this).
func (d *Device) Reset() {
	for i := range d.links {
		d.drainQueue(&d.links[i].rqst)
		d.drainQueue(&d.links[i].rsp)
		d.links[i].reset()
	}
	for i := range d.xbar.rqst {
		d.drainQueue(&d.xbar.rqst[i])
		d.drainQueue(&d.xbar.rsp[i])
	}
	for i := range d.vaults {
		v := &d.vaults[i]
		d.drainQueue(&v.rqst)
		d.drainQueue(&v.rsp)
		clear(v.banks)
	}
	clear(d.vaultRqstMask)
	clear(d.vaultRspMask)
	d.cycle = 0
	d.stats = Stats{}
	d.regs.reset(d.Cfg)
	d.store.Zero()
	if d.faultPlan.Enabled() {
		for i := range d.links {
			l := &d.links[i]
			stream := uint64(d.ID)<<16 | uint64(i)<<1
			l.rqstDir.inj.Reset(d.faultPlan, stream)
			l.rspDir.inj.Reset(d.faultPlan, stream|1)
		}
	}
}

// Trim releases the reusable capacity Reset deliberately keeps warm,
// shrinking an idle device toward its freshly built footprint: the
// backing store's materialized pages scrub back to the process-wide page
// pool and the flight/request free lists are dropped. Call it after
// Reset on a device headed for an idle pool — a parked session then
// costs only its structural allocations, and the first run after
// revival re-materializes capacity on demand (first writes draw from
// the same shared pool the trim fed). Trim never touches run-visible
// state, so Reset+Trim stays bit-identical to a fresh device.
func (d *Device) Trim() {
	d.store.Trim()
	d.flightPool = nil
	d.rqstPool = nil
	for i := range d.vaults {
		d.vaults[i].ctxScratch = nil
	}
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

// recycleFlight returns a flight and whatever packets it still carries
// to their pools.
func (d *Device) recycleFlight(f *Flight) {
	if f.Rqst != nil {
		d.putRqst(f.Rqst)
	}
	if f.Rsp != nil {
		packet.PutRsp(f.Rsp)
	}
	d.putFlight(f)
}
