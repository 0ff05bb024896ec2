package device

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

// Clock advances the device by one cycle. See the package comment for the
// phase model; the phase ordering is what gives an uncongested request
// its three-cycle round trip while still enforcing queue capacity and
// FIFO ordering under load.
//
// The phases skip idle components: bitsets track which vaults hold
// queued requests or responses (maintained where packets are pushed and
// popped), and only those vaults are visited. Setting ForceWalk restores
// the walk-everything behaviour; both modes produce bit-identical
// results.
func (d *Device) Clock() {
	d.cycle++
	d.stats.Cycles++
	d.responsePhase()
	d.executePhase()
	d.requestPhase()
	d.samplePhase()
}

// The dirty masks are iterated ascending (TrailingZeros64), preserving
// the deterministic vault visit order of the full walk. The bit loops
// are written inline in each phase: closure-based iteration allocates,
// and these run every cycle.

func setBit(mask []uint64, i int)   { mask[i>>6] |= 1 << (i & 63) }
func clearBit(mask []uint64, i int) { mask[i>>6] &^= 1 << (i & 63) }

// responsePhase drains responses toward the host: vault response queues
// into the crossbar's per-link response queues, then the crossbar queues
// into the host link response queues. Processing vault->xbar before
// xbar->link lets a response traverse the whole chain in one cycle when
// uncongested.
func (d *Device) responsePhase() {
	if d.ForceWalk {
		for i := range d.vaults {
			d.drainVaultRsp(i)
		}
	} else {
		for wi, w := range d.vaultRspMask {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				w &^= 1 << b
				d.drainVaultRsp(wi<<6 + b)
			}
		}
	}
	for li := range d.links {
		l := &d.links[li]
		q := &d.xbar.rsp[li]
		budget := d.Cfg.LinkFlitsPerCycle
		for {
			f, ok := q.Peek()
			if !ok {
				break
			}
			// Per-link SerDes bandwidth: stop when this cycle's FLIT
			// budget cannot carry the next packet.
			if flits := int(f.Rsp.LNG); flits > budget {
				d.stats.LinkSerStalls++
				break
			}
			// Link retry protocol: a packet whose CRC arrives bad is
			// retransmitted after the retry sequence completes.
			if stop := d.linkAdvance(l, &l.rspDir, &l.rqstDir, f, nil, f.Rsp.TAG); stop {
				break
			}
			if err := l.rsp.Push(f); err != nil {
				break // host not draining: wait
			}
			if d.spans != nil && d.spans.Tracked(f.Rsp.TAG) {
				d.spans.Stage(span.KindRspEgress, d.ID, li, -1, f.Rsp.TAG, d.cycle, 0)
			}
			if l.rspDir.inj != nil {
				l.rspDir.stamped = nil
				l.rspDir.lastFrp = f.Rsp.FRP
			}
			budget -= int(f.Rsp.LNG)
			d.stats.RspFlits += uint64(f.Rsp.LNG)
			q.Pop()
			d.stats.Rsps++
		}
	}
}

// drainVaultRsp moves vault i's queued responses into the crossbar until
// the queue empties (clearing its dirty bit) or the port fills.
func (d *Device) drainVaultRsp(i int) {
	v := &d.vaults[i]
	for {
		f, ok := v.rsp.Peek()
		if !ok {
			clearBit(d.vaultRspMask, i)
			return
		}
		if err := d.xbar.rsp[f.Link].Push(f); err != nil {
			return // crossbar port full: head-of-line wait
		}
		if d.spans != nil && d.spans.Tracked(f.Rsp.TAG) {
			d.spans.Stage(span.KindRspXbar, d.ID, f.Link, v.ID, f.Rsp.TAG, d.cycle, 0)
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
func (d *Device) linkAdvance(l *Link, dir, opp *linkDir, f *Flight, rqst *packet.Rqst, tag uint16) bool {
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
		if d.retryHist != nil {
			d.retryHist.Observe(d.cycle - dir.faultAt)
		}
		dir.faultAt = 0
	}
	if dir.inj != nil && !d.retryStamp(dir, opp, f, rqst) {
		if d.spans != nil && d.spans.Tracked(tag) {
			d.spans.Point(span.KindRetryStall, d.ID, l.ID, -1, tag, d.cycle, 0)
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
	return d.injectFault(l, dir, kind, f, rqst, tag)
}

// retryStamp assigns the head packet its retry-protocol identity on the
// first transmission attempt: a 3-bit SEQ, an FRP naming the retry-buffer
// slot holding it, and the RRP acknowledgment pointer piggybacked from
// the opposite direction. Retransmissions (budget stalls, queue-full
// waits, fault retries) keep their stamp. It reports false when the
// retry buffer is full.
func (d *Device) retryStamp(dir, opp *linkDir, f *Flight, rqst *packet.Rqst) bool {
	if dir.stamped == f {
		return true
	}
	// Retire slots whose acknowledgment lag has elapsed.
	for dir.n > 0 {
		if dir.slots[dir.head].sentAt+retryAckLag > d.cycle {
			break
		}
		dir.head = (dir.head + 1) % RetrySlots
		dir.n--
	}
	if dir.n == RetrySlots {
		d.stats.RetryBufStalls++
		return false
	}
	slot := (dir.head + dir.n) % RetrySlots
	dir.slots[slot] = retrySlot{sentAt: d.cycle, seq: dir.seq}
	dir.n++
	dir.stamped = f
	if rqst != nil {
		rqst.SEQ = dir.seq
		rqst.FRP = uint16(slot)
		rqst.RRP = opp.lastFrp
	} else {
		f.Rsp.SEQ = dir.seq
		f.Rsp.FRP = uint16(slot)
		f.Rsp.RRP = opp.lastFrp
	}
	dir.seq = (dir.seq + 1) & (RetrySlots - 1)
	return true
}

// injectFault applies one fault decision to the head packet. CRC and
// Flip corrupt a real encoding of the packet and run it through
// packet.VerifyCRC — the check the receive side of the link performs —
// then park the direction for the retry sequence; Drop parks for the
// longer retransmit timeout (nothing signals the loss); Down takes the
// whole link out of service. It always returns true: the attempt failed.
func (d *Device) injectFault(l *Link, dir *linkDir, kind fault.Kind, f *Flight, rqst *packet.Rqst, tag uint16) bool {
	detail := "link CRC fault: retry sequence"
	switch kind {
	case fault.CRC, fault.Flip:
		if dir.inj != nil {
			d.corrupt(dir, kind, f, rqst)
		}
		if kind == fault.Flip {
			detail = "injected bit flip: retry sequence"
		}
		dir.retryUntil = d.cycle + uint64(d.Cfg.LinkRetryCycles)
		dir.faultAt = d.cycle
		l.Retries++
		d.stats.LinkRetries++
	case fault.Drop:
		detail = "injected packet drop: awaiting retransmit timeout"
		dir.retryUntil = d.cycle + uint64(d.dropTimeout)
		dir.faultAt = d.cycle
		d.stats.Drops++
		l.Retries++
		d.stats.LinkRetries++
	case fault.Down:
		detail = "injected link-down window"
		l.downUntil = d.cycle + uint64(d.downCycles)
		d.stats.DownWindows++
	}
	if d.spans != nil && d.spans.Tracked(tag) {
		d.spans.Point(span.KindFault, d.ID, l.ID, -1, tag, d.cycle, uint32(kind))
	}
	if d.tracer.Enabled(trace.LevelStall) {
		ev := trace.Event{
			Cycle: d.cycle, Kind: trace.LevelStall,
			Dev: d.ID, Quad: -1, Vault: -1, Bank: -1,
			Tag: tag, Detail: detail,
		}
		if rqst != nil {
			ev.Cmd = rqst.Cmd.String()
			ev.Addr = rqst.ADRS
		}
		d.tracer.Emit(ev)
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
// ascending vault order; each vault reconciles its own dirty bits as it
// finishes (execVault). Iterating a copy of each mask word keeps the
// visit set fixed to the vaults active when the phase began.
func (d *Device) executePhase() {
	if d.ForceWalk {
		for i := range d.vaults {
			d.execVault(i)
		}
		return
	}
	for wi, w := range d.vaultRqstMask {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			d.execVault(wi<<6 + b)
		}
	}
}

// requestPhase advances requests into the device: host link request
// queues into the crossbar's per-link request queues, then the crossbar
// queues into the target vault request queues (routing on the address's
// vault field). Link order gives deterministic arbitration.
func (d *Device) requestPhase() {
	for li := range d.links {
		l := &d.links[li]
		q := &d.xbar.rqst[li]
		budget := d.Cfg.LinkFlitsPerCycle
		for {
			f, ok := l.rqst.Peek()
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
			if stop := d.linkAdvance(l, &l.rqstDir, &l.rspDir, f, f.Rqst, f.Rqst.TAG); stop {
				break
			}
			if err := q.Push(f); err != nil {
				break
			}
			if d.spans != nil && d.spans.Tracked(f.Rqst.TAG) {
				d.spans.Stage(span.KindLinkIngress, d.ID, li, -1, f.Rqst.TAG, d.cycle, 0)
			}
			if l.rqstDir.inj != nil {
				l.rqstDir.stamped = nil
				l.rqstDir.lastFrp = f.Rqst.FRP
			}
			budget -= flits
			d.stats.RqstFlits += uint64(flits)
			l.rqst.Pop()
		}
	}
	for li := range d.links {
		q := &d.xbar.rqst[li]
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
			vault := &d.vaults[vi]
			if err := vault.rqst.Push(f); err != nil {
				// Full vault queue: strict FIFO per crossbar port means
				// head-of-line blocking — the source of the 4Link/8Link
				// divergence under hot-spot load (paper §V-C).
				d.stats.XbarBackpressure++
				if d.tracer.Enabled(trace.LevelStall) {
					d.tracer.Emit(trace.Event{
						Cycle: d.cycle, Kind: trace.LevelStall,
						Dev: d.ID, Quad: vault.Quad, Vault: vault.ID, Bank: -1,
						Cmd: f.Rqst.Cmd.String(), Tag: f.Rqst.TAG, Addr: f.Rqst.ADRS,
						Detail: "xbar head blocked: vault request queue full",
					})
				}
				break
			}
			if d.spans != nil && d.spans.Tracked(f.Rqst.TAG) {
				d.spans.Stage(span.KindVaultEnq, d.ID, -1, vi, f.Rqst.TAG, d.cycle, 0)
			}
			setBit(d.vaultRqstMask, vi)
			q.Pop()
		}
	}
}

// samplePhase records occupancy statistics once per cycle. Empty queues
// are skipped: an empty sample adds zero occupancy, and queue.Stats
// reconstructs the skipped sample counts from the cycle counter
// (SetSampleBase), so the reported statistics are bit-identical to
// sampling everything.
func (d *Device) samplePhase() {
	if d.ForceWalk {
		for i := range d.links {
			d.links[i].rqst.Sample()
			d.links[i].rsp.Sample()
		}
		for li := range d.links {
			d.xbar.rqst[li].Sample()
			d.xbar.rsp[li].Sample()
		}
		for i := range d.vaults {
			d.vaults[i].rqst.Sample()
			d.vaults[i].rsp.Sample()
		}
		return
	}
	for i := range d.links {
		l := &d.links[i]
		if !l.rqst.Empty() {
			l.rqst.Sample()
		}
		if !l.rsp.Empty() {
			l.rsp.Sample()
		}
	}
	for li := range d.links {
		if q := &d.xbar.rqst[li]; !q.Empty() {
			q.Sample()
		}
		if q := &d.xbar.rsp[li]; !q.Empty() {
			q.Sample()
		}
	}
	for wi, w := range d.vaultRqstMask {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			d.vaults[wi<<6+b].rqst.Sample()
		}
	}
	for wi, w := range d.vaultRspMask {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			d.vaults[wi<<6+b].rsp.Sample()
		}
	}
}
