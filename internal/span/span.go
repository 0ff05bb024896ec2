// Package span implements request-lifecycle tracing: a cycle-stamped
// record of where a single tracked request spent its time as it moved
// through the pipeline — host send, link FLIT serialization, crossbar
// arbitration, vault queueing, bank timing, AMO/CMC execution, the
// response path, link-retry recoveries and multi-hop topology
// forwarding.
//
// Storage is a fixed-capacity ring — a flight recorder. Appends write
// into a preallocated event slab and never allocate; once the ring
// wraps, the oldest events are overwritten (Dropped counts them). Which
// requests are tracked is decided once, at host send, by TAG modulo
// sampling (Config.SampleMod) or by explicit arming (TraceNext); every
// later event of an untracked tag is a single bitmap read.
//
// The recorded events reconstruct, per request, a chain of stage
// transitions whose cycle deltas telescope exactly to the end-to-end
// latency — the invariant Attribution relies on. Exporters turn the
// ring into a Chrome/Perfetto trace (WritePerfetto) or a per-stage
// latency-attribution table (Attribute).
//
// Concurrency: a tracer records one simulator at a time, on the
// goroutine that clocks it — simulators on other goroutines would
// collide in its per-tag state, so a sweep carrying a tracer runs its
// points on one worker. Recorder state mutates under one mutex, so
// another goroutine may read the ring (Events, Attribution) while a run
// records.
package span

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/packet"
)

// Kind identifies one lifecycle event. Stage kinds end a latency stage
// (the cycles since the request's previous stage event are attributed to
// them); marker kinds are zero-width annotations (stalls, faults,
// anomalies) that never advance the stage clock.
type Kind uint8

// Lifecycle event kinds, in pipeline order.
const (
	// KindHostSend marks the request's acceptance into a host link
	// request queue. On device 0 it opens the request's span; on a
	// remote cube it ends the topology hop stage.
	KindHostSend Kind = iota
	// KindLinkIngress marks the request crossing the host link into the
	// crossbar request queue — the end of link-queue wait plus FLIT
	// serialization.
	KindLinkIngress
	// KindVaultEnq marks crossbar dequeue into the target vault request
	// queue.
	KindVaultEnq
	// KindExecute marks vault dispatch and in-situ execution
	// (read/write/AMO/CMC happen in the dispatch cycle). Arg carries the
	// response ERRSTAT in its low byte and ArgPosted when the command
	// produced no response (which also closes the span).
	KindExecute
	// KindRspXbar marks the response draining from the vault response
	// queue into the crossbar.
	KindRspXbar
	// KindRspEgress marks the response crossing the crossbar onto the
	// host link response queue — response-side FLIT serialization.
	KindRspEgress
	// KindHostRecv marks the host popping the response. It closes the
	// span unless the request was topology-forwarded (then the remote
	// collection is an intermediate stage and KindTopoArrive closes).
	KindHostRecv
	// KindTopoForward marks a request entering the inter-cube hop-delay
	// path; Arg carries the hop count. Opens the span for remote
	// requests.
	KindTopoForward
	// KindTopoArrive marks a forwarded response maturing at the host
	// after its return hops. Closes the span.
	KindTopoArrive

	// KindSendStall marks a Send rejected with HMC_STALL (marker).
	KindSendStall
	// KindBankWait marks a cycle the request headed its vault queue
	// behind a busy bank (marker).
	KindBankWait
	// KindRspWait marks an execution deferred by a full vault response
	// queue (marker).
	KindRspWait
	// KindFault marks an injected link fault on the packet's head slot;
	// Arg carries the fault.Kind bit (marker).
	KindFault
	// KindRetryStall marks a transmission attempt deferred because the
	// link direction's retry buffer was full (marker).
	KindRetryStall
	// KindAnomaly marks a span closing with end-to-end latency above
	// Config.ThresholdCycles; Arg carries the latency, saturated to 32
	// bits (marker).
	KindAnomaly

	numKinds
)

var kindNames = [numKinds]string{
	KindHostSend:    "host.send",
	KindLinkIngress: "link.ingress",
	KindVaultEnq:    "vault.enq",
	KindExecute:     "vault.exec",
	KindRspXbar:     "rsp.vault",
	KindRspEgress:   "rsp.egress",
	KindHostRecv:    "host.recv",
	KindTopoForward: "topo.forward",
	KindTopoArrive:  "topo.arrive",
	KindSendStall:   "send.stall",
	KindBankWait:    "bank.wait",
	KindRspWait:     "rsp.wait",
	KindFault:       "link.fault",
	KindRetryStall:  "retry.stall",
	KindAnomaly:     "anomaly",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Marker reports whether k is a zero-width annotation rather than a
// stage transition.
func (k Kind) Marker() bool { return k >= KindSendStall }

// ArgPosted flags a KindExecute event whose command produced no
// response: the span closed at execution.
const ArgPosted uint32 = 1 << 8

// Event is one fixed-size flight-recorder record. The struct is
// append-only slab storage: 24 bytes, no pointers, so a full ring costs
// the GC nothing.
type Event struct {
	// Cycle is the device (or, for topology events, topology) cycle the
	// transition happened on.
	Cycle uint64
	// Tag is the request TAG the event belongs to.
	Tag uint16
	// Kind identifies the transition.
	Kind Kind
	// Class is the request's command class (hmccmd.Class), recorded on
	// span-opening events and zero elsewhere.
	Class uint8
	// Dev is the cube the event happened on (-1 for topology-level
	// events).
	Dev int16
	// Link and Vault locate the component, -1 when not applicable.
	Link, Vault int16
	// Arg carries kind-specific detail: ERRSTAT|ArgPosted for
	// KindExecute, hop count for KindTopoForward, fault.Kind for
	// KindFault, saturated latency for KindAnomaly.
	Arg uint32
}

// DefaultCapacity is the flight recorder's default ring size in events
// (24 bytes each, ~1.5 MB).
const DefaultCapacity = 1 << 16

// Config parameterizes a Tracer.
type Config struct {
	// Capacity is the ring size in events; 0 selects DefaultCapacity.
	Capacity int
	// SampleMod tracks requests whose TAG ≡ 0 (mod SampleMod). 0 and 1
	// both track every request. Untracked requests cost one bitmap read
	// per pipeline hook.
	SampleMod uint32
	// ThresholdCycles, when non-zero, appends a KindAnomaly marker (and
	// counts Anomalies) for every span closing with end-to-end latency
	// above it.
	ThresholdCycles uint64
}

const numTags = packet.MaxTag + 1

// Tracer is the flight recorder: it decides which requests to track,
// appends their lifecycle events into the ring, and feeds the optional
// per-stage metrics histograms online.
type Tracer struct {
	mu    sync.Mutex
	slab  []Event // preallocated ring storage
	head  int     // next write slot
	count uint64  // lifetime appends (count > len(slab) ⇒ wrapped)

	cfg   Config
	armed uint32 // TraceNext budget, consumed at span open

	// Per-tag span state. A tag has at most one open span at a time
	// (the engines keep one request in flight per tag); openCycle and
	// lastCycle drive the anomaly check and the online stage deltas.
	tracked   [numTags]bool
	forwarded [numTags]bool
	openCycle [numTags]uint64
	lastCycle [numTags]uint64

	completed uint64
	anomalies uint64

	// Online metrics feed (RegisterMetrics): one histogram per stage
	// plus the end-to-end total, observed as events arrive so the
	// registry view never needs a ring scan.
	stageHists [numStages]*metrics.Histogram
	totalHist  *metrics.Histogram
}

// New builds a tracer with its ring preallocated; appends never
// allocate after this.
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Tracer{slab: make([]Event, cfg.Capacity), cfg: cfg}
}

// TraceNext arms the tracer to track the next n span opens regardless
// of the TAG modulo — the "trace exactly this request" hook.
func (t *Tracer) TraceNext(n int) {
	t.mu.Lock()
	t.armed += uint32(n)
	t.mu.Unlock()
}

// Tracked reports whether tag has an open tracked span, without
// taking the lock.
func (t *Tracer) Tracked(tag uint16) bool { return t.tracked[tag&packet.MaxTag] }

// decide consumes the arming budget or applies the TAG modulo. Called
// with the mutex held.
func (t *Tracer) decide(tag uint16) bool {
	if t.armed > 0 {
		t.armed--
		return true
	}
	return t.cfg.SampleMod <= 1 || uint32(tag)%t.cfg.SampleMod == 0
}

// append writes one event into the ring. Called with the mutex held.
func (t *Tracer) append(e Event) {
	t.slab[t.head] = e
	t.head++
	if t.head == len(t.slab) {
		t.head = 0
	}
	t.count++
}

// observeStage feeds one stage delta into the online histograms, when
// registered. Called with the mutex held.
func (t *Tracer) observeStage(s StageID, delta uint64) {
	if h := t.stageHists[s]; h != nil {
		h.Observe(delta)
	}
}

// close finishes tag's span: anomaly check, completion count, total
// histogram. Called with the mutex held.
func (t *Tracer) close(tag uint16, cycle uint64) {
	i := tag & packet.MaxTag
	lat := cycle - t.openCycle[i]
	t.completed++
	if t.totalHist != nil {
		t.totalHist.Observe(lat)
	}
	if t.cfg.ThresholdCycles > 0 && lat > t.cfg.ThresholdCycles {
		t.anomalies++
		arg := uint32(0xFFFFFFFF)
		if lat < uint64(arg) {
			arg = uint32(lat)
		}
		t.append(Event{Cycle: cycle, Tag: tag, Kind: KindAnomaly, Arg: arg})
	}
	t.tracked[i] = false
	t.forwarded[i] = false
}

// Record records one lifecycle event of the request tagged tag, for
// the device's span sink and the topology's hop hooks alike. An opening
// kind (KindHostSend, KindTopoForward) on an untracked tag runs the
// sampling decision and opens the span; any other kind on an untracked
// tag is one lock-free bitmap read. Stage kinds attribute the cycles
// since the tag's previous stage event; markers leave that clock alone.
// KindExecute with ArgPosted, KindHostRecv of an unforwarded request
// and KindTopoArrive close the span. Callers pass the command class on
// opening kinds and zero elsewhere.
func (t *Tracer) Record(kind Kind, dev, link, vault int, tag uint16, class uint8, cycle uint64, arg uint32) {
	i := tag & packet.MaxTag
	opens := kind == KindHostSend || kind == KindTopoForward
	if !opens && !t.tracked[i] {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.tracked[i] {
		if !opens || !t.decide(tag) {
			return
		}
		t.tracked[i], t.forwarded[i] = true, kind == KindTopoForward
		t.openCycle[i], t.lastCycle[i] = cycle, cycle
	}
	t.append(Event{Cycle: cycle, Tag: tag, Kind: kind, Class: class,
		Dev: int16(dev), Link: int16(link), Vault: int16(vault), Arg: arg})
	if kind.Marker() {
		return
	}
	t.observeStage(stageOf(kind, t.forwarded[i]), cycle-t.lastCycle[i])
	t.lastCycle[i] = cycle
	if kind == KindExecute && arg&ArgPosted != 0 ||
		kind == KindHostRecv && !t.forwarded[i] || kind == KindTopoArrive {
		t.close(tag, cycle)
	}
}

// Events returns the recorded events, oldest first. The slice is a
// fresh copy: the dump primitive behind the exporters, safe to hold
// across further recording.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.slab)
	if t.count < uint64(n) {
		n = int(t.count)
		out := make([]Event, n)
		copy(out, t.slab[:n])
		return out
	}
	out := make([]Event, 0, n)
	out = append(out, t.slab[t.head:]...)
	out = append(out, t.slab[:t.head]...)
	return out
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count <= uint64(len(t.slab)) {
		return 0
	}
	return t.count - uint64(len(t.slab))
}

// Completed returns how many tracked spans have closed.
func (t *Tracer) Completed() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// Anomalies returns how many closed spans exceeded the latency
// threshold.
func (t *Tracer) Anomalies() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.anomalies
}

// Attribution computes the per-stage latency-attribution table over the
// current ring contents.
func (t *Tracer) Attribution() *Attribution { return Attribute(t.Events()) }

// NameStageCycles is the per-stage latency histogram family the tracer
// feeds when RegisterMetrics has run: one histogram per pipeline stage
// (label stage=<name>) plus stage="total" for end-to-end latency.
const NameStageCycles = "hmc_stage_cycles"

// RegisterMetrics creates the hmc_stage_cycles histograms in reg and
// switches the tracer to feed them online: every stage transition of a
// tracked request observes its cycle delta, every span close observes
// the end-to-end latency. Observe is a few atomic ops, so the recording
// path stays allocation-free.
func (t *Tracer) RegisterMetrics(reg *metrics.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s := StageID(0); s < numStages; s++ {
		t.stageHists[s] = reg.Histogram(NameStageCycles, metrics.L("stage", s.String()))
	}
	t.totalHist = reg.Histogram(NameStageCycles, metrics.L("stage", "total"))
}
