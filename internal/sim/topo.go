package sim

// Multi-device topologies — the 1.0 simulator's ability to "chain
// multiple HMC devices together in a multitude of different topologies"
// (paper §II), carried forward. The host attaches to device 0; a request
// whose CUB field addresses another cube is forwarded at transaction
// granularity: each inter-cube hop adds one cycle of latency in each
// direction, and the packet then enters the target device's normal link
// queue structure. (The original simulator forwards packets through cube
// link queues; the hop-delay model preserves the latency and ordering
// behaviour without duplicating the device pipeline per hop.)

import (
	"errors"
	"fmt"

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
	return 0, fmt.Errorf("sim: unknown topology %q", s)
}

// Errors returned by the topology routing.
var (
	// ErrBadCUB reports a request addressing a cube outside the topology.
	ErrBadCUB = errors.New("sim: CUB addresses no device")
	// ErrBadCount reports an unsupported device count.
	ErrBadCount = errors.New("sim: device count out of range")
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

// Devices returns the simulated devices; device 0 is host-attached.
func (s *Simulator) Devices() []*device.Device { return s.devs }

// Device returns one device by CUB.
func (s *Simulator) Device(cub int) (*device.Device, error) {
	if cub < 0 || cub >= len(s.devs) {
		return nil, fmt.Errorf("%w: %d", ErrBadCUB, cub)
	}
	return s.devs[cub], nil
}

// hops returns the inter-cube hop count between two devices.
func (s *Simulator) hops(a, b int) int {
	if a == b {
		return 0
	}
	switch s.kind {
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
		n := len(s.devs)
		d := (b - a + n) % n
		if n-d < d {
			d = n - d
		}
		return d
	default:
		return 0
	}
}

// Send submits a request on a host link of device 0 (hmcsim_send); the
// request's CUB field selects the target cube. A full link queue
// returns device.ErrStall. Requests addressing remote cubes are
// forwarded with one cycle of delay per hop; a link the cubes do not
// have is refused with device.ErrBadLink, as device 0 refuses it,
// instead of leaving the request in transit for good.
func (s *Simulator) Send(link int, r *packet.Rqst) error {
	target := int(r.CUB)
	if target >= len(s.devs) {
		return fmt.Errorf("%w: CUB %d with %d devices", ErrBadCUB, target, len(s.devs))
	}
	if target == 0 {
		return s.devs[0].Send(link, r)
	}
	if link < 0 || link >= len(s.pendingRsp) {
		return fmt.Errorf("%w: %d", device.ErrBadLink, link)
	}
	hops := s.hops(0, target)
	// Adopt by copy: the packet sits in the hop-delay buffer for several
	// cycles, and callers are free to reuse their request (and its
	// payload) as soon as Send returns — the same adoption contract
	// device.Send has. The copy target comes from the simulator's free
	// list (recycled when the forwarded request is delivered), so
	// steady-state forwarding allocates nothing.
	c := s.getRqst()
	c.CopyFrom(r)
	s.pendingRqst = append(s.pendingRqst, delayedRqst{
		deliverAt: s.cycle + uint64(hops),
		link:      link,
		rqst:      c,
	})
	s.forwardedRqsts++
	if s.spans != nil {
		// Opens the span of a remote request; the remote device's Send
		// ends the hop stage, and the arrival (Recv) closes the span.
		s.spans.Record(span.KindTopoForward, -1, link, -1, r.TAG,
			uint8(r.Cmd.InfoRef().Class), s.cycle, uint32(hops))
	}
	return nil
}

// getRqst pops a recycled forwarded-request clone, or allocates the
// free list's first-use entries.
func (s *Simulator) getRqst() *packet.Rqst {
	if n := len(s.rqstFree); n > 0 {
		r := s.rqstFree[n-1]
		s.rqstFree = s.rqstFree[:n-1]
		return r
	}
	return new(packet.Rqst)
}

// putRqst returns a delivered clone to the free list, keeping its
// payload buffer for reuse by the next CopyFrom.
func (s *Simulator) putRqst(r *packet.Rqst) {
	s.rqstFree = append(s.rqstFree, r)
}

// Recv pops the next response available on a host link (hmcsim_recv):
// local responses from device 0 first, then forwarded responses whose
// hop delay has elapsed.
func (s *Simulator) Recv(link int) (*packet.Rsp, bool) {
	if rsp, ok := s.devs[0].Recv(link); ok {
		return rsp, true
	}
	if link < 0 || link >= len(s.pendingRsp) {
		return nil, false
	}
	q := s.pendingRsp[link]
	h := s.rspHead[link]
	if h < len(q) && q[h].deliverAt <= s.cycle {
		rsp := q[h].rsp
		if s.spans != nil {
			s.spans.Record(span.KindTopoArrive, -1, link, -1, rsp.TAG, 0, s.cycle, 0)
		}
		q[h].rsp = nil // release the head entry's packet reference
		h++
		if h == len(q) {
			// Drained: rewind onto the same backing array so steady-state
			// forwarding stops allocating once the queue reaches its
			// high-water capacity.
			s.pendingRsp[link] = q[:0]
			h = 0
		}
		s.rspHead[link] = h
		return rsp, true
	}
	return nil, false
}

// RspAvailable reports whether a Recv on some host link would succeed
// right now — the polling primitive behind run-until-event drivers:
// device 0 holds a response, or a forwarded response's hop delay has
// elapsed at the head of a link's return queue.
func (s *Simulator) RspAvailable() bool {
	if s.devs[0].HostRspQueued() {
		return true
	}
	for link, q := range s.pendingRsp {
		h := s.rspHead[link]
		if h < len(q) && q[h].deliverAt <= s.cycle {
			return true
		}
	}
	return false
}

// deliverPending delivers forwarded requests whose hop delay has
// elapsed — before the cycle advances, so each hop costs one full
// device cycle. A stalled target link keeps the packet in transit
// (retried next cycle); delivered clones return to the free list
// (device.Send adopts by deep copy).
func (s *Simulator) deliverPending() {
	if len(s.pendingRqst) == 0 {
		return
	}
	remaining := s.pendingRqst[:0]
	for _, p := range s.pendingRqst {
		if p.deliverAt <= s.cycle {
			if err := s.devs[p.rqst.CUB].Send(p.link, p.rqst); err == nil {
				s.putRqst(p.rqst)
				continue
			}
		}
		remaining = append(remaining, p)
	}
	s.pendingRqst = remaining
}

// collectFrom collects responses surfacing on one remote device and
// starts them on their return trip.
func (s *Simulator) collectFrom(cub int) {
	hops := uint64(s.hops(0, cub))
	for link := range s.pendingRsp {
		for {
			rsp, ok := s.devs[cub].Recv(link)
			if !ok {
				break
			}
			s.pendingRsp[link] = append(s.pendingRsp[link], delayedRsp{
				deliverAt: s.cycle + hops,
				rsp:       rsp,
			})
			s.forwardedRsps++
		}
	}
}

// step advances every device one cycle and moves forwarded packets
// across the inter-cube hops. A cube runs its full device Clock when
// its next event is due (always, with event-driven scheduling off) and
// otherwise takes a SkipCycles(1) counter bump. A remote cube that
// still holds surfaced responses steps too; that check is defensive,
// since the collection below drains them every cycle.
func (s *Simulator) step() {
	if len(s.devs) == 1 {
		// A single cube never forwards (Send routes CUB 0 directly), so
		// the exchange scans are vacuous.
		s.cycle++
		s.devs[0].Clock()
		return
	}
	s.deliverPending()
	s.cycle++

	// Step the devices. During a device cycle no inter-cube state is
	// touched: the exchange above and the collection below bracket it.
	var stepped uint // bit i: cube i ran its device Clock
	for i, d := range s.devs {
		if s.eventOff || d.NextEventCycle() <= s.cycle || i > 0 && d.HostRspQueued() {
			d.Clock()
			stepped |= 1 << i
		} else {
			d.SkipCycles(1)
		}
	}
	// Collect only once every cube has stepped, so observers see all of
	// the cycle's pipeline events before the collected responses' Recv
	// events. A skipped cube's host queues were empty and a skip fills
	// none, so it has nothing to collect.
	for cub := 1; cub < len(s.devs); cub++ {
		if stepped&(1<<cub) != 0 {
			s.collectFrom(cub)
		}
	}
}
