package device

import "math/bits"

// Quiescence tracking: the device-level half of the event-driven cycle
// scheduler. NextEventCycle computes a lower bound on the next cycle
// whose Clock() could change observable state, and SkipCycles
// fast-forwards the device over a span the caller proved idle by
// advancing its two cycle counters, which is bit-identical to clocking
// every cycle.
//
// The bound leans on the same lazy-evaluation discipline that makes the
// activity-mask idle skipping of the serial clock exact: bank readyAt,
// retry-slot retirement and fault-injector draws are all evaluated at
// the moment a packet moves, never per cycle, so a device whose queues
// cannot move has literally nothing to do. The only per-cycle mutations
// in the whole clock are (a) packet movement and its counters and (b)
// stall counters on blocked movement; both force a bound of cycle+1
// below. Queue occupancy needs nothing per cycle: each queue integrates
// its length over the cycle counter (queue.Queue), so frozen queues
// accumulate a skipped span's samples as the counter jumps.

// NeverCycle is the NextEventCycle result of a fully quiescent device:
// no queued packet anywhere, so no future Clock can do anything until
// new traffic arrives via Send.
const NeverCycle = ^uint64(0)

// NextEventCycle returns a cycle E such that every Clock() call
// advancing the device to a cycle strictly below E is a no-op apart
// from the cycle counters — exactly what SkipCycles advances. Callers may
// therefore SkipCycles(n) for any n with cycle+n < E (equivalently
// n <= E-1-cycle) and remain bit-identical to per-cycle stepping.
//
// The bound is conservative and cheap, not tight: any state that could
// move a packet or touch a counter on the next Clock returns cycle+1
// (no skip). Three regimes emerge:
//
//   - NeverCycle: every queue is empty. Bank busy windows, un-retired
//     retry slots and armed fault injectors do not matter — all are
//     evaluated lazily when a packet next moves.
//   - A park expiry: the only queued packets are heads parked behind
//     link retry windows (retryUntil — CRC/Flip retry sequences and
//     Drop retransmit timeouts) or link-down windows (downUntil). The
//     device resumes at the earliest such expiry; until then the gate
//     returns before touching any counter or injector stream.
//   - cycle+1: anything else — queued vault work, crossbar requests, a
//     movable head, or a head whose blocked movement counts a stall
//     every cycle (serialization-budget overflow).
//
// ForceWalk disables skipping entirely (bound cycle+1), mirroring its
// role in the per-vault idle skipping.
func (d *Device) NextEventCycle() uint64 {
	next := d.cycle + 1
	if d.ForceWalk {
		return next
	}
	// Queued vault work executes (or counts bank-conflict/backpressure
	// stalls) every cycle, and queued crossbar requests route every
	// cycle (or count xbar backpressure): both pin the bound.
	if d.vaultRqst|d.vaultRsp|d.xbarRqst != 0 {
		return next
	}
	// Only the ports whose link request or crossbar response queue holds
	// a head can bound the skip. A port's link response queue (responses
	// awaiting Recv) is deliberately not a bound: the device itself
	// never moves it, so it only freezes across a skip. A remote cube's
	// is drained at every cycle it steps (Simulator.step collects it),
	// so it is empty at every cycle boundary there.
	bound := NeverCycle
	for w := d.linkRqst | d.xbarRsp; w != 0; w &= w - 1 {
		p := d.ports[bits.TrailingZeros64(w)]
		if f, ok := p.rqst.Peek(); ok {
			flits := int(f.Rqst.LNG)
			if flits == 0 {
				flits = int(f.Rqst.Cmd.InfoRef().RqstFlits)
			}
			bound = min(bound, d.headParkedUntil(&p.Link, &p.rqstDir, flits))
		}
		if f, ok := p.xrsp.Peek(); ok {
			bound = min(bound, d.headParkedUntil(&p.Link, &p.rspDir, int(f.Rsp.LNG)))
		}
		if bound == next {
			return next
		}
	}
	return bound
}

// headParkedUntil returns the cycle the head packet of one link
// direction can next make progress (or next touch a counter trying).
// The order mirrors the phase code exactly: the serialization-budget
// check runs before the link gate (a too-big head counts LinkSerStalls
// every cycle even while parked), a disabled gate never parks, and an
// enabled gate parks the direction while cycle < downUntil (link-wide
// outage) or cycle < retryUntil (retry sequence / retransmit timeout)
// without touching retry state or drawing from the fault stream.
func (d *Device) headParkedUntil(l *Link, dir *linkDir, flits int) uint64 {
	if flits > d.Cfg.LinkFlitsPerCycle {
		return d.cycle + 1
	}
	if dir.inj == nil && d.Cfg.LinkFaultPeriod == 0 {
		return d.cycle + 1
	}
	until := l.downUntil
	if dir.retryUntil > until {
		until = dir.retryUntil
	}
	if until <= d.cycle+1 {
		return d.cycle + 1
	}
	return until
}

// SkipCycles advances the device n cycles without running the clock
// phases — the event-driven fast-forward. It is legal only when
// cycle+n < NextEventCycle() (the caller's proof that no phase could
// have done anything). The cycle counters are all a skipped span
// changes; the queues, frozen across it, take its occupancy samples
// from the counter jump.
func (d *Device) SkipCycles(n uint64) {
	d.cycle += n
	d.stats.Cycles += n
}

// HostRspQueued reports whether any host link holds a response awaiting
// Recv. The topology uses it to keep a remote cube on the stepped path
// (its responses must start their return hop the cycle they surface);
// for the host-attached device it is also the run-until-event loop's
// "response available" signal.
func (d *Device) HostRspQueued() bool { return d.linkRsp != 0 }

// HostRspLinks returns the host links holding a response awaiting Recv,
// bit i for link i.
func (d *Device) HostRspLinks() uint64 { return d.linkRsp }
