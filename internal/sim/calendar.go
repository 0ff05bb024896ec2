package sim

import "repro/internal/device"

// The topology-level half of the event-driven cycle scheduler: how far
// the batched drivers (ClockN, ClockUntilRecv) can fast-forward every
// cube in one jump. step decides, cycle by cycle, which cubes run;
// the functions here find spans in which none would, so the whole
// simulation skips them at once.
//
// With at most config.MaxDevs (8) cubes, the bounds come from a linear
// scan of the per-cube next-event cycles (device.NextEventCycle) rather
// than a min-heap or sorted ring: recomputing all eight costs a few
// dozen loads (NextEventCycle short-circuits on the first dirty bitset
// word), far below the constant factor of maintaining an ordered
// structure under per-cycle invalidation. The bounds are recomputed at
// every decision point instead of cached across calls, so direct device
// pokes between public clock calls (tests, JTAG) can never leave a
// stale bound behind.

// jumpSpan returns how many whole cycles every cube can fast-forward in
// one jump without any step doing observable work, capped at n. Zero
// means the next cycle must be stepped: some cube has an event due, a
// forwarded request is deliverable (or must be delivered exactly when
// its hop delay elapses — a jump never crosses a deliverAt), or a
// remote cube holds responses the collect loop owes the return path.
func (s *Simulator) jumpSpan(n uint64) uint64 {
	target := s.cycle + n
	for i, d := range s.devs {
		if i > 0 && d.HostRspQueued() {
			return 0
		}
		b := d.NextEventCycle()
		if b == device.NeverCycle {
			continue
		}
		// The device may advance to b-1; clocking to b does the work.
		if b-1 < target {
			target = b - 1
		}
	}
	for i := range s.pendingRqst {
		at := s.pendingRqst[i].deliverAt
		if at <= s.cycle {
			return 0
		}
		// Delivery happens in the step whose pre-increment cycle equals
		// deliverAt, so the jump may land exactly on it but not beyond.
		if at < target {
			target = at
		}
	}
	if target <= s.cycle {
		return 0
	}
	return target - s.cycle
}

// recvSpan is jumpSpan additionally capped so a jump never crosses the
// cycle a forwarded response matures on a host link — the bound the
// run-until-event driver (ClockUntilRecv) needs so it stops exactly at
// the cycle a response becomes visible to Recv. Only each link's head
// entry matters: Recv delivers strictly in FIFO order per link.
func (s *Simulator) recvSpan(n uint64) uint64 {
	span := s.jumpSpan(n)
	for link, q := range s.pendingRsp {
		h := s.rspHead[link]
		if h < len(q) {
			at := q[h].deliverAt
			if at <= s.cycle {
				return 0
			}
			if at-s.cycle < span {
				span = at - s.cycle
			}
		}
	}
	return span
}

// skipAll fast-forwards every cube span cycles and advances the
// simulation clock with them.
func (s *Simulator) skipAll(span uint64) {
	for _, d := range s.devs {
		d.SkipCycles(span)
	}
	s.cycle += span
}
