package device

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/packet"
)

// Clock advances the device by one cycle. See the package comment for the
// phase model; the phase ordering is what gives an uncongested request
// its three-cycle round trip while still enforcing queue capacity and
// FIFO ordering under load.
//
// The phases skip idle components: activity masks track which link,
// crossbar and vault queues hold packets (maintained where packets are
// pushed and popped), and only those queues are visited. Setting
// ForceWalk restores the walk-everything behaviour over every built port
// and vault (an unbuilt one has empty queues); both modes produce
// bit-identical results.
//
// The cycle counter in Stats moves last: that is the moment every queue
// takes its occupancy sample (queue.Queue), so a sample sees the queues
// as the phases left them, before the host's next Send or Recv.
func (d *Device) Clock() {
	d.cycle++
	d.responsePhase()
	d.executePhase()
	d.requestPhase()
	d.stats.Cycles++
}

// The masks are iterated ascending (TrailingZeros64), preserving the
// deterministic link and vault visit order of the full walk. The bit
// loops are written inline in each phase: closure-based iteration
// allocates, and these run every cycle.

// walk returns the set a phase visits: the active mask, or under
// ForceWalk every built entry of built (ports or vaults).
func walk[T any](force bool, active uint64, built []*T) uint64 {
	if !force {
		return active
	}
	var m uint64
	for i, x := range built {
		if x != nil {
			m |= 1 << i
		}
	}
	return m
}

// responsePhase drains responses toward the host: vault response queues
// into the crossbar's per-link response queues, then the crossbar queues
// into the host link response queues. Processing vault->xbar before
// xbar->link lets a response traverse the whole chain in one cycle when
// uncongested.
func (d *Device) responsePhase() {
	for w := walk(d.ForceWalk, d.vaultRsp, d.vaults); w != 0; w &= w - 1 {
		d.drainVaultRsp(bits.TrailingZeros64(w))
	}
	for w := walk(d.ForceWalk, d.xbarRsp, d.ports); w != 0; w &= w - 1 {
		d.egress(d.ports[bits.TrailingZeros64(w)])
	}
}

// egress moves port p's crossbar responses onto its host link, within
// the cycle's FLIT budget, until the crossbar queue empties (clearing
// its activity bit) or the link blocks.
func (d *Device) egress(p *port) {
	q := &p.xrsp
	budget := d.Cfg.LinkFlitsPerCycle
	for {
		f, ok := q.Peek()
		if !ok {
			break
		}
		// Per-link SerDes bandwidth: stop when this cycle's FLIT budget
		// cannot carry the next packet.
		if flits := int(f.Rsp.LNG); flits > budget {
			d.stats.LinkSerStalls++
			break
		}
		// Link retry protocol: a packet whose CRC arrives bad is
		// retransmitted after the retry sequence completes.
		if stop := d.linkAdvance(&p.Link, &p.rspDir, &p.rqstDir, f, nil); stop {
			break
		}
		if err := p.rsp.Push(f); err != nil {
			break // host not draining: wait
		}
		d.linkRsp |= 1 << p.ID
		if d.obs != nil {
			d.observe(Event{Stage: StageRspEgress, Flight: f, Link: p.ID, Vault: -1})
		}
		if ring := p.rspDir.ring; ring != nil {
			ring.stamped = nil
			ring.lastFrp = f.Rsp.FRP
		}
		budget -= int(f.Rsp.LNG)
		d.stats.RspFlits += uint64(f.Rsp.LNG)
		q.Pop()
		d.stats.Rsps++
	}
	if q.Empty() {
		d.xbarRsp &^= 1 << p.ID
	}
}

// drainVaultRsp moves vault i's queued responses into the crossbar until
// the queue empties (clearing its dirty bit) or the port fills.
func (d *Device) drainVaultRsp(i int) {
	v := d.vaults[i]
	for {
		f, ok := v.rsp.Peek()
		if !ok {
			d.vaultRsp &^= 1 << i
			return
		}
		// A response leaves on its request's ingress link, whose port
		// Send built.
		if err := d.ports[f.Link].xrsp.Push(f); err != nil {
			return // crossbar port full: head-of-line wait
		}
		d.xbarRsp |= 1 << f.Link
		if d.obs != nil {
			d.observe(Event{Stage: StageRspXbar, Flight: f, Link: f.Link, Vault: v.ID})
		}
		v.rsp.Pop()
	}
}

// linkAdvance gates one transmission attempt of the head packet in a
// link direction: the periodic CRC-fault injector (Config.LinkFaultPeriod,
// every Nth traversal) and the seeded random injector (Device.SetFaultPlan)
// both live here, along with the SEQ/FRP retry buffer of the Gen2 retry
// protocol. It reports whether the caller must stop moving packets on
// this direction this cycle.
//
// With both injectors disabled (the default) the gate is a single branch
// and touches no retry state, keeping the zero-fault clock loop
// bit-identical to a build without the subsystem.
func (d *Device) linkAdvance(l *Link, dir, opp *linkDir, f *Flight, rqst *packet.Rqst) bool {
	period := uint64(d.Cfg.LinkFaultPeriod)
	if dir.inj == nil && period == 0 {
		return false
	}
	// Transient outage (fault.Down): the whole link is out of service.
	if d.cycle < l.downUntil {
		return true
	}
	if d.cycle < dir.retryUntil {
		return true // retry sequence still playing out
	}
	if dir.faultAt != 0 {
		// First attempt after a retry sequence completed: the retransmit
		// leaves the retry buffer now, closing the latency measurement.
		if d.obs != nil {
			d.observe(Event{Stage: StageRetryDone, Flight: f, Link: l.ID, Vault: -1, Arg: int(d.cycle - dir.faultAt)})
		}
		dir.faultAt = 0
	}
	if dir.inj != nil && !d.retryStamp(dir.ring, opp.ring, f, rqst) {
		if d.obs != nil {
			d.observe(Event{Stage: StageRetryStall, Flight: f, Link: l.ID, Vault: -1})
		}
		return true // retry buffer full: wait for acknowledgments
	}
	// Fault decision for this attempt. The periodic injector keeps its
	// original semantics (traversals count every non-parked attempt,
	// including retransmissions); the random injector draws only on
	// attempts the periodic one left clean, so both stay deterministic
	// when combined.
	var kind fault.Kind
	if period != 0 {
		dir.traversals++
		if dir.traversals%period == 0 {
			kind = fault.CRC
		}
	}
	if kind == 0 {
		if dir.inj == nil {
			return false
		}
		if kind = dir.inj.Next(); kind == 0 {
			return false
		}
	}
	return d.injectFault(l, dir, kind, f, rqst)
}

// retryStamp assigns the head packet its retry-protocol identity on the
// first transmission attempt: a 3-bit SEQ, an FRP naming the retry-buffer
// slot holding it, and the RRP acknowledgment pointer piggybacked from
// the opposite direction. Retransmissions (budget stalls, queue-full
// waits, fault retries) keep their stamp. It reports false when the
// retry buffer is full.
func (d *Device) retryStamp(ring, opp *retryRing, f *Flight, rqst *packet.Rqst) bool {
	if ring.stamped == f {
		return true
	}
	// Retire slots whose acknowledgment lag has elapsed.
	for ring.n > 0 {
		if ring.sentAt[ring.head]+retryAckLag > d.cycle {
			break
		}
		ring.head = (ring.head + 1) % RetrySlots
		ring.n--
	}
	if ring.n == RetrySlots {
		d.stats.RetryBufStalls++
		return false
	}
	slot := (ring.head + ring.n) % RetrySlots
	ring.sentAt[slot] = d.cycle
	ring.n++
	ring.stamped = f
	if rqst != nil {
		rqst.SEQ = ring.seq
		rqst.FRP = uint16(slot)
		rqst.RRP = opp.lastFrp
	} else {
		f.Rsp.SEQ = ring.seq
		f.Rsp.FRP = uint16(slot)
		f.Rsp.RRP = opp.lastFrp
	}
	ring.seq = (ring.seq + 1) & (RetrySlots - 1)
	return true
}

// injectFault applies one fault decision to the head packet. CRC and
// Flip corrupt a real encoding of the packet and run it through
// packet.VerifyCRC — the check the receive side of the link performs —
// then park the direction for the retry sequence; Drop parks for the
// longer retransmit timeout (nothing signals the loss); Down takes the
// whole link out of service. It always returns true: the attempt failed.
func (d *Device) injectFault(l *Link, dir *linkDir, kind fault.Kind, f *Flight, rqst *packet.Rqst) bool {
	switch kind {
	case fault.CRC, fault.Flip:
		if dir.inj != nil {
			d.corrupt(dir, kind, f, rqst)
		}
		dir.retryUntil = d.cycle + uint64(d.Cfg.LinkRetryCycles)
		dir.faultAt = d.cycle
		l.Retries++
		d.stats.LinkRetries++
	case fault.Drop:
		dir.retryUntil = d.cycle + uint64(d.dropTimeout)
		dir.faultAt = d.cycle
		d.stats.Drops++
		l.Retries++
		d.stats.LinkRetries++
	case fault.Down:
		l.downUntil = d.cycle + uint64(d.downCycles)
		d.stats.DownWindows++
	}
	if d.obs != nil {
		d.observe(Event{Stage: StageFault, Flight: f, Link: l.ID, Vault: -1, Arg: int(kind)})
	}
	return true
}

// corrupt exercises the real CRC datapath for a CRC or Flip fault: the
// in-flight packet is encoded into the device's fault scratch, one bit
// is flipped at a position drawn from the direction's deterministic
// stream (a CRC-field bit for fault.CRC, any wire bit for fault.Flip),
// and the corrupted image must fail packet.VerifyCRC — CRC-32K detects
// every single-bit error, so the receiver always catches it.
func (d *Device) corrupt(dir *linkDir, kind fault.Kind, f *Flight, rqst *packet.Rqst) {
	var words []uint64
	var err error
	if rqst != nil {
		words, err = rqst.EncodeInto(d.faultWire)
	} else {
		words, err = f.Rsp.EncodeInto(d.faultWire)
	}
	if err != nil {
		// Unencodable in-flight packets cannot happen in practice; count
		// the corruption anyway so the fault stream stays accounted for.
		d.stats.CRCErrors++
		return
	}
	d.faultWire = words[:0]
	if kind == fault.CRC {
		words[len(words)-1] ^= 1 << (32 + dir.inj.Uint64()%32)
	} else {
		w := int(dir.inj.Uint64() % uint64(len(words)))
		words[w] ^= 1 << (dir.inj.Uint64() % 64)
	}
	if packet.VerifyCRC(words) != nil {
		d.stats.CRCErrors++
	}
}

// executePhase services the request queue of every active vault in
// ascending vault order; each vault reconciles its own activity bits as
// it finishes (execVault). Iterating a copy of the mask keeps the visit
// set fixed to the vaults active when the phase began.
func (d *Device) executePhase() {
	for w := walk(d.ForceWalk, d.vaultRqst, d.vaults); w != 0; w &= w - 1 {
		d.execVault(bits.TrailingZeros64(w))
	}
}

// requestPhase advances requests into the device: host link request
// queues into the crossbar's per-link request queues, then the crossbar
// queues into the target vault request queues (routing on the address's
// vault field). Link order gives deterministic arbitration.
func (d *Device) requestPhase() {
	for w := walk(d.ForceWalk, d.linkRqst, d.ports); w != 0; w &= w - 1 {
		d.ingress(d.ports[bits.TrailingZeros64(w)])
	}
	for w := walk(d.ForceWalk, d.xbarRqst, d.ports); w != 0; w &= w - 1 {
		d.route(d.ports[bits.TrailingZeros64(w)])
	}
}

// ingress moves port p's host link requests into its crossbar request
// queue, within the cycle's FLIT budget, until the link queue empties
// (clearing its activity bit) or the crossbar queue blocks.
func (d *Device) ingress(p *port) {
	budget := d.Cfg.LinkFlitsPerCycle
	for {
		f, ok := p.rqst.Peek()
		if !ok {
			break
		}
		flits := int(f.Rqst.LNG)
		if flits == 0 {
			flits = int(f.Rqst.Cmd.InfoRef().RqstFlits)
		}
		if flits > budget {
			d.stats.LinkSerStalls++
			break
		}
		if stop := d.linkAdvance(&p.Link, &p.rqstDir, &p.rspDir, f, &f.Rqst); stop {
			break
		}
		if err := p.xrqst.Push(f); err != nil {
			break
		}
		d.xbarRqst |= 1 << p.ID
		if d.obs != nil {
			d.observe(Event{Stage: StageLinkIngress, Flight: f, Link: p.ID, Vault: -1})
		}
		if ring := p.rqstDir.ring; ring != nil {
			ring.stamped = nil
			ring.lastFrp = f.Rqst.FRP
		}
		budget -= flits
		d.stats.RqstFlits += uint64(flits)
		p.rqst.Pop()
	}
	if p.rqst.Empty() {
		d.linkRqst &^= 1 << p.ID
	}
}

// route moves port p's crossbar requests into their target vaults'
// request queues until the crossbar queue empties (clearing its
// activity bit) or its head meets a full vault queue.
func (d *Device) route(p *port) {
	q := &p.xrqst
	for {
		f, ok := q.Peek()
		if !ok {
			break
		}
		// Route on the vault field. The address map's mask keeps the
		// index in range for any 64-bit ADRS today; the clamp makes
		// mis-sized future maps route deterministically to vault 0,
		// where execution rejects the out-of-range address with
		// ErrstatBadAddr instead of panicking here.
		vi := d.amap.VaultOf(f.Rqst.ADRS)
		if vi < 0 || vi >= len(d.vaults) {
			vi = 0
		}
		if err := d.vault(vi).rqst.Push(f); err != nil {
			// Full vault queue: strict FIFO per crossbar port means
			// head-of-line blocking — the source of the 4Link/8Link
			// divergence under hot-spot load (paper §V-C).
			d.stats.XbarBackpressure++
			if d.obs != nil {
				d.observe(Event{Stage: StageXbarBlocked, Flight: f, Link: p.ID, Vault: vi})
			}
			break
		}
		if d.obs != nil {
			d.observe(Event{Stage: StageVaultEnq, Flight: f, Link: -1, Vault: vi})
		}
		d.vaultRqst |= 1 << vi
		q.Pop()
	}
	if q.Empty() {
		d.xbarRqst &^= 1 << p.ID
	}
}
