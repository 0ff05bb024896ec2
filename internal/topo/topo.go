// Package topo implements multi-device HMC topologies — the 1.0
// simulator's ability to "chain multiple HMC devices together in a
// multitude of different topologies" (paper §II), carried forward.
//
// The host attaches to device 0; requests whose CUB field addresses
// another cube are routed across the topology. Routing uses the HMC
// packet-forwarding model at transaction granularity: each inter-cube hop
// adds one cycle of latency in each direction, and the packet then enters
// the target device's normal link queue structure. (The original
// simulator forwards packets through cube link queues; the hop-delay
// model preserves the latency and ordering behaviour without duplicating
// the device pipeline per hop.)
package topo

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/packet"
	"repro/internal/span"
)

// Kind selects the inter-cube wiring.
type Kind int

// Supported topologies.
const (
	// KindSingle is one device, no routing.
	KindSingle Kind = iota
	// KindChain wires devices in a linear chain: hops(i,j) = |i-j|.
	KindChain
	// KindStar wires every device one hop from device 0.
	KindStar
	// KindRing wires devices in a ring: hops(i,j) = min ring distance.
	KindRing
)

var kindNames = map[Kind]string{
	KindSingle: "single", KindChain: "chain", KindStar: "star", KindRing: "ring",
}

// String returns the topology name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses a topology name.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("topo: unknown topology %q", s)
}

// Errors returned by the topology layer.
var (
	// ErrBadCUB reports a request addressing a cube outside the topology.
	ErrBadCUB = errors.New("topo: CUB addresses no device")
	// ErrBadCount reports an unsupported device count.
	ErrBadCount = errors.New("topo: device count out of range")
)

type delayedRqst struct {
	deliverAt uint64
	link      int
	rqst      *packet.Rqst
}

type delayedRsp struct {
	deliverAt uint64
	rsp       *packet.Rsp
}

// Topology is a set of devices with host attachment at device 0.
type Topology struct {
	kind  Kind
	devs  []*device.Device
	cycle uint64

	pendingRqst []delayedRqst
	// pendingRsp holds forwarded responses in transit, one FIFO per host
	// link. Each queue is consumed through its rspHead index rather than
	// by re-slicing, so the backing array (and the consumed entries'
	// capacity) is reused once the queue drains instead of leaking behind
	// the slice head on long chained runs.
	pendingRsp [][]delayedRsp
	rspHead    []int
	// ForwardedRqsts and ForwardedRsps count packets that crossed at
	// least one inter-cube hop.
	ForwardedRqsts, ForwardedRsps uint64

	// cal is the event scheduler's per-cycle step plan (calendar.go);
	// eventOff disables event-driven scheduling entirely, restoring
	// unconditional per-cycle stepping of every cube (SetEventDriven).
	cal      calendar
	eventOff bool

	// rqstFree recycles the forwarded-request clones Send buffers in the
	// hop-delay queue, so steady-state cross-cube traffic allocates
	// nothing once each clone's payload buffer reaches its high-water
	// capacity.
	rqstFree []*packet.Rqst

	// spans, when non-nil, is the request-lifecycle flight recorder the
	// devices' span sinks also feed (SetSpans): the topology records the
	// inter-cube hop events (forward departure, return arrival).
	spans *span.Tracer
}

// New builds n identically configured devices wired as kind, with no
// observers attached.
func New(kind Kind, n int, cfg config.Config) (*Topology, error) {
	if n < 1 || n > config.MaxDevs {
		return nil, fmt.Errorf("%w: %d", ErrBadCount, n)
	}
	if kind == KindSingle && n != 1 {
		return nil, fmt.Errorf("%w: single topology with %d devices", ErrBadCount, n)
	}
	t := &Topology{kind: kind}
	for i := 0; i < n; i++ {
		d, err := device.New(i, cfg)
		if err != nil {
			return nil, err
		}
		t.devs = append(t.devs, d)
	}
	t.pendingRsp = make([][]delayedRsp, cfg.Links)
	t.rspHead = make([]int, cfg.Links)
	t.cal.init(n)
	return t, nil
}

// SetEventDriven toggles event-driven cycle scheduling (on by default):
// each Clock consults the calendar to fast-forward provably-idle cubes,
// and the batched drivers (ClockN, ClockUntilRecv) jump whole idle
// spans. Both modes are bit-identical — the calendar only skips work
// device.NextEventCycle proves to be a no-op — so turning it off exists
// as the topology-level analogue of device.ForceWalk: an escape hatch
// for debugging and for the equivalence suite's reference runs.
func (t *Topology) SetEventDriven(on bool) { t.eventOff = !on }

// SetSpans makes the topology record its inter-cube hop events into a
// span tracer; nil stops it. The devices record their own stages
// through their span sinks (device.SpanSink). Purely observational —
// results are bit-identical with or without it.
func (t *Topology) SetSpans(tr *span.Tracer) { t.spans = tr }

// Devices returns the topology's devices; device 0 is host-attached.
func (t *Topology) Devices() []*device.Device { return t.devs }

// Device returns one device by CUB.
func (t *Topology) Device(cub int) (*device.Device, error) {
	if cub < 0 || cub >= len(t.devs) {
		return nil, fmt.Errorf("%w: %d", ErrBadCUB, cub)
	}
	return t.devs[cub], nil
}

// Hops returns the inter-cube hop count between two devices.
func (t *Topology) Hops(a, b int) int {
	if a == b {
		return 0
	}
	switch t.kind {
	case KindChain:
		if a > b {
			a, b = b, a
		}
		return b - a
	case KindStar:
		if a == 0 || b == 0 {
			return 1
		}
		return 2
	case KindRing:
		n := len(t.devs)
		d := (b - a + n) % n
		if n-d < d {
			d = n - d
		}
		return d
	default:
		return 0
	}
}

// Send submits a request on a host link of device 0. Requests addressing
// remote cubes are forwarded with one cycle of delay per hop.
func (t *Topology) Send(link int, r *packet.Rqst) error {
	target := int(r.CUB)
	if target >= len(t.devs) {
		return fmt.Errorf("%w: CUB %d with %d devices", ErrBadCUB, target, len(t.devs))
	}
	if target == 0 {
		return t.devs[0].Send(link, r)
	}
	hops := t.Hops(0, target)
	// Adopt by copy: the packet sits in the hop-delay buffer for several
	// cycles, and callers are free to reuse their request (and its
	// payload) as soon as Send returns — the same adoption contract
	// device.Send has. The copy target comes from the topology's free
	// list (recycled when the forwarded request is delivered), so
	// steady-state forwarding allocates nothing.
	c := t.getRqst()
	c.CopyFrom(r)
	t.pendingRqst = append(t.pendingRqst, delayedRqst{
		deliverAt: t.cycle + uint64(hops),
		link:      link,
		rqst:      c,
	})
	t.ForwardedRqsts++
	if t.spans != nil {
		// Opens the span of a remote request; the remote device's Send
		// ends the hop stage, and the arrival (Recv) closes the span.
		t.spans.Record(span.KindTopoForward, -1, link, -1, r.TAG,
			uint8(r.Cmd.InfoRef().Class), t.cycle, uint32(hops))
	}
	return nil
}

// getRqst pops a recycled forwarded-request clone, or allocates the
// free list's first-use entries.
func (t *Topology) getRqst() *packet.Rqst {
	if n := len(t.rqstFree); n > 0 {
		r := t.rqstFree[n-1]
		t.rqstFree = t.rqstFree[:n-1]
		return r
	}
	return new(packet.Rqst)
}

// putRqst returns a delivered clone to the free list, keeping its
// payload buffer for reuse by the next CopyFrom.
func (t *Topology) putRqst(r *packet.Rqst) {
	t.rqstFree = append(t.rqstFree, r)
}

// Recv pops the next response available on a host link: local responses
// from device 0 first, then forwarded responses whose hop delay has
// elapsed.
func (t *Topology) Recv(link int) (*packet.Rsp, bool) {
	if rsp, ok := t.devs[0].Recv(link); ok {
		return rsp, true
	}
	if link < 0 || link >= len(t.pendingRsp) {
		return nil, false
	}
	q := t.pendingRsp[link]
	h := t.rspHead[link]
	if h < len(q) && q[h].deliverAt <= t.cycle {
		rsp := q[h].rsp
		if t.spans != nil {
			t.spans.Record(span.KindTopoArrive, -1, link, -1, rsp.TAG, 0, t.cycle, 0)
		}
		q[h].rsp = nil // release the head entry's packet reference
		h++
		if h == len(q) {
			// Drained: rewind onto the same backing array so steady-state
			// forwarding stops allocating once the queue reaches its
			// high-water capacity.
			t.pendingRsp[link] = q[:0]
			h = 0
		}
		t.rspHead[link] = h
		return rsp, true
	}
	return nil, false
}

// deliverPending delivers forwarded requests whose hop delay has
// elapsed — before the cycle advances, so each hop costs one full
// device cycle. A stalled target link keeps the packet in transit
// (retried next cycle); delivered clones return to the free list
// (device.Send adopts by deep copy).
func (t *Topology) deliverPending() {
	if len(t.pendingRqst) == 0 {
		return
	}
	remaining := t.pendingRqst[:0]
	for _, p := range t.pendingRqst {
		if p.deliverAt <= t.cycle {
			if err := t.devs[p.rqst.CUB].Send(p.link, p.rqst); err == nil {
				t.putRqst(p.rqst)
				continue
			}
		}
		remaining = append(remaining, p)
	}
	t.pendingRqst = remaining
}

// collectFrom collects responses surfacing on one remote device and
// starts them on their return trip.
func (t *Topology) collectFrom(cub int) {
	hops := uint64(t.Hops(0, cub))
	for link := range t.pendingRsp {
		for {
			rsp, ok := t.devs[cub].Recv(link)
			if !ok {
				break
			}
			t.pendingRsp[link] = append(t.pendingRsp[link], delayedRsp{
				deliverAt: t.cycle + hops,
				rsp:       rsp,
			})
			t.ForwardedRsps++
		}
	}
}

// Clock advances every device one cycle and moves forwarded packets
// across the inter-cube hops. In event-driven mode (the default) the
// calendar decides per cube whether to run the full device Clock or a
// SkipCycles(1) counter bump, and only stepped cubes are scanned for
// surfaced responses — a skipped cube's host queues are provably frozen.
func (t *Topology) Clock() {
	if len(t.devs) == 1 {
		// A single cube never forwards (Send routes CUB 0 directly), so
		// the exchange scans are vacuous.
		t.cycle++
		t.devs[0].Clock()
		return
	}
	t.deliverPending()
	t.cycle++

	// Step the devices. During a device cycle no inter-cube state is
	// touched: the exchange above and the collection below bracket it.
	if t.eventOff {
		for _, d := range t.devs {
			d.Clock()
		}
		for cub := 1; cub < len(t.devs); cub++ {
			t.collectFrom(cub)
		}
		return
	}
	t.planCycle()
	for i, d := range t.devs {
		if t.cal.step[i] {
			d.Clock()
		} else {
			d.SkipCycles(1)
		}
	}
	for cub := 1; cub < len(t.devs); cub++ {
		if t.cal.step[cub] {
			t.collectFrom(cub)
		}
	}
}

// ClockN advances the topology n cycles — the batched form of Clock,
// and the event scheduler's biggest lever: whole provably-idle spans
// (every cube quiescent or parked behind fault windows, no forwarded
// packet deliverable) collapse into one SkipCycles jump per cube, and
// spans where exactly one cube is active batch that cube's device clock
// back-to-back without per-cycle topology scans.
// Results are bit-identical to n sequential Clock calls in every
// configuration; SetEventDriven(false) restores literal per-cycle
// stepping.
func (t *Topology) ClockN(n uint64) {
	if len(t.devs) == 1 && len(t.pendingRqst) == 0 {
		d := t.devs[0]
		if t.eventOff {
			t.cycle += n
			for i := uint64(0); i < n; i++ {
				d.Clock()
			}
			return
		}
		for n > 0 {
			b := d.NextEventCycle()
			var span uint64
			if b == device.NeverCycle {
				span = n
			} else if m := b - 1 - t.cycle; m > 0 {
				span = min(m, n)
			}
			if span > 0 {
				d.SkipCycles(span)
				t.cycle += span
				n -= span
				continue
			}
			t.cycle++
			d.Clock()
			n--
		}
		return
	}
	if t.eventOff {
		for i := uint64(0); i < n; i++ {
			t.Clock()
		}
		return
	}
	for n > 0 {
		if span := t.jumpSpan(n); span > 0 {
			t.skipAll(span)
			n -= span
			continue
		}
		if done := t.clockSingleActive(n); done > 0 {
			n -= done
			continue
		}
		t.Clock()
		n--
	}
}

// RspAvailable reports whether a host-side Recv would succeed on some
// link right now: device 0 holds a response, or a forwarded response's
// hop delay has elapsed at the head of a link's return queue.
func (t *Topology) RspAvailable() bool {
	if t.devs[0].HostRspQueued() {
		return true
	}
	for link, q := range t.pendingRsp {
		h := t.rspHead[link]
		if h < len(q) && q[h].deliverAt <= t.cycle {
			return true
		}
	}
	return false
}

// ClockUntilRecv advances the topology until a response is available to
// Recv or budget cycles have elapsed, returning the cycles advanced
// (always at least one when budget permits — mirroring a per-cycle
// driver that clocks before polling). It is the run-until-event form of
// ClockN: idle and parked spans are jumped, but never past the cycle a
// response surfaces or matures, so the caller observes responses on
// exactly the cycle a clock-and-poll-every-cycle loop would.
func (t *Topology) ClockUntilRecv(budget uint64) uint64 {
	if budget == 0 {
		return 0
	}
	if t.RspAvailable() {
		// Degenerate call (a response is already waiting): advance the
		// one cycle a clock-and-poll driver would.
		t.Clock()
		return 1
	}
	var adv uint64
	for adv < budget {
		if !t.eventOff {
			if span := t.recvSpan(budget - adv); span > 0 {
				t.skipAll(span)
				adv += span
				// A jump only lands on (never crosses) a maturity cycle;
				// device-0 queues are frozen across it, so only the
				// pendingRsp heads can have become available.
				if t.RspAvailable() {
					break
				}
				continue
			}
		}
		t.Clock()
		adv++
		if t.RspAvailable() {
			break
		}
	}
	return adv
}

// Cycle returns the topology clock.
func (t *Topology) Cycle() uint64 { return t.cycle }

// Reset rewinds the topology and every device to the as-constructed
// state without reallocating: in-transit forwarded packets recycle into
// their free lists (a forwarded response into the list of the cube that
// built it), the hop-delay queues rewind onto their backing
// arrays, the forwarding counters and the topology clock zero, and each
// device resets in place (device.Reset). The calendar (refilled from
// scratch every cycle) and the clone free list are reusable capacity and
// survive. After Reset the topology is bit-identical, in every statistic
// and packet, to a freshly built one.
func (t *Topology) Reset() {
	for _, p := range t.pendingRqst {
		t.putRqst(p.rqst)
	}
	t.pendingRqst = t.pendingRqst[:0]
	for link := range t.pendingRsp {
		q := t.pendingRsp[link]
		for i := t.rspHead[link]; i < len(q); i++ {
			packet.PutRsp(q[i].rsp)
			q[i].rsp = nil
		}
		t.pendingRsp[link] = q[:0]
		t.rspHead[link] = 0
	}
	t.ForwardedRqsts, t.ForwardedRsps = 0, 0
	t.cycle = 0
	for _, d := range t.devs {
		d.Reset()
	}
}
