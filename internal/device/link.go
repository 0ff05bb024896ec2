package device

import (
	"repro/internal/fault"
	"repro/internal/queue"
)

// RetrySlots is the depth of each link direction's retry buffer: eight
// slots, matching the 3-bit SEQ space of the Gen2 tail. A direction can
// stamp at most RetrySlots packets per cycle before the ring fills and
// the direction stalls (Stats.RetryBufStalls) until acknowledgments
// retire slots on the next cycle.
const RetrySlots = 8

// retryAckLag is how many cycles after transmission a retry-buffer slot
// is retired. The model folds the reverse-channel acknowledgment (the
// RRP carried by traffic or PRET packets on the opposite direction) into
// a fixed one-cycle lag, which keeps the protocol deadlock-free even
// when the reverse direction carries no traffic at all.
const retryAckLag = 1

// retryRing is one link direction's SEQ/FRP retry buffer: a ring of
// RetrySlots outstanding transmissions, each retiring retryAckLag cycles
// after its attempt. Only the random fault injector stamps packets, so
// SetFaultPlan builds a ring beside each injector and a fault-free link
// carries none.
type retryRing struct {
	// sentAt holds each occupied slot's transmission cycle; head and n
	// index the ring, and seq is the next 3-bit sequence number.
	sentAt  [RetrySlots]uint64
	head, n int
	seq     uint8
	// lastFrp is the FRP of the last packet delivered in this direction;
	// the opposite direction stamps it into RRP as the piggybacked
	// acknowledgment pointer.
	lastFrp uint16
	// stamped marks the head packet as already stamped and buffered, so
	// budget stalls, queue-full retries and fault retransmissions reuse
	// the same SEQ/FRP instead of consuming new slots.
	stamped *Flight
}

// linkDir is the per-direction link-layer state: the traversal counter
// and park window of the retry protocol, the deterministic fault
// injector, and its retry buffer.
type linkDir struct {
	// traversals counts transmission attempts, driving the periodic
	// injector (Config.LinkFaultPeriod); retryUntil parks the head packet
	// while a retry sequence (error abort, IRTRY, retransmit) plays out.
	traversals uint64
	retryUntil uint64
	// faultAt is the cycle the current retry sequence started, for the
	// retry-latency histogram (zero when no retry is pending).
	faultAt uint64

	// inj is the direction's seeded fault stream and ring its retry
	// buffer; both are nil when the random injector is disabled (the
	// zero-fault fast path).
	inj  *fault.Injector
	ring *retryRing
}

// Link models one host-facing HMC link: a request queue carrying packets
// into the device and a response queue carrying packets back to the host.
//
// HMC links may source from a host processor or from another cube when
// devices are chained (the 1.0 chaining feature, routed by the topology
// layer above the device); the device model itself is agnostic — both
// kinds of traffic enter through the same queues.
//
// A link lives in its port, built on first use (Device.port); its queue
// ring buffers materialize on first use in turn, and its retry rings
// only with a fault plan (Device.SetFaultPlan).
type Link struct {
	// ID is the link index, matching the SLID field of packets that enter
	// on it.
	ID   int
	rqst queue.Queue[*Flight]
	rsp  queue.Queue[*Flight]

	// rqstDir and rspDir hold the retry-protocol state for each
	// direction; downUntil is the link-wide transient-outage window (the
	// fault.Down kind), during which neither direction moves.
	rqstDir, rspDir linkDir
	downUntil       uint64

	// Retries counts completed retry sequences on this link.
	Retries uint64
}

// port is one host link together with its crossbar port: the link's
// queues and retry state, and the crossbar request and response queues
// that serve it. A device builds a port when the first request is sent
// on its link, so a session that drives one link pays for one port.
type port struct {
	Link
	xrqst, xrsp queue.Queue[*Flight]
}

// reset rewinds one direction's retry-protocol state to power-on. The
// injector and the ring survive (Device.Reset reseeds the injector in
// place when a plan is installed); everything else — traversal counter,
// park window, ring contents — returns to zero.
func (ld *linkDir) reset() {
	inj, ring := ld.inj, ld.ring
	*ld = linkDir{inj: inj, ring: ring}
	if ring != nil {
		*ring = retryRing{}
	}
}

// reset rewinds the link to power-on: both directions' retry state, the
// down window and the retry counter. The queue ring buffers are reusable
// capacity, not state, and survive.
func (l *Link) reset() {
	l.rqstDir.reset()
	l.rspDir.reset()
	l.downUntil = 0
	l.Retries = 0
}

// RqstStats returns the request queue statistics.
func (l *Link) RqstStats() queue.Stats { return l.rqst.Stats() }

// RspStats returns the response queue statistics.
func (l *Link) RspStats() queue.Stats { return l.rsp.Stats() }

// RqstLen returns the current request queue occupancy.
func (l *Link) RqstLen() int { return l.rqst.Len() }

// RspLen returns the current response queue occupancy.
func (l *Link) RspLen() int { return l.rsp.Len() }
