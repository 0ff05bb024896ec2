// Package device models one Hybrid Memory Cube Gen2 device: host links, a
// logic-layer crossbar, quadrants of vaults with banked DRAM, the atomic
// and custom-memory-cube execution units, and a register file reachable
// both over JTAG and via MD_RD/MD_WR mode requests.
//
// # Cycle model
//
// The simulator is a transaction-level cycle model in the spirit of the
// original HMC-Sim: it deliberately carries no DRAM timing or power data
// (paper §VII) and instead models packet movement through the device's
// queueing structure. Each Clock() advances one device cycle in three
// phases:
//
//  1. Response phase — responses drain vault response queues through the
//     crossbar response queues to the host link response queues.
//  2. Execute phase — every vault services its request queue in FIFO
//     order: decode, bank-availability check, in-situ execution
//     (read/write/AMO/CMC), and response construction.
//  3. Request phase — requests drain host link request queues through the
//     crossbar request queues into the vault request queues.
//
// Within a phase a packet traverses the whole queue chain when there is
// space (the queues model capacity and ordering, not per-hop bandwidth),
// so an uncongested request reaches its vault one cycle after Send, is
// executed on the next cycle, and its response reaches the host link one
// cycle later: a three-cycle round trip, which makes the paper's minimum
// six-cycle lock+unlock sequence (Table VI) the uncongested floor.
// Backpressure is real: a full downstream queue leaves packets queued
// upstream (head-of-line blocking), and a full host link queue rejects
// Send with ErrStall — the HMC_STALL condition.
//
// # Concurrency
//
// The host API (Send/Recv/Clock) and every clock phase run on the
// caller's goroutine, as in the original simulator: a Device, its store
// and its free lists belong to one goroutine at a time and take no
// locks. Parallelism comes from running independent simulators side by
// side (sweep workers, session-server shards); those share only the
// process-wide store page pool and packet response pool, both
// sync.Pools.
package device

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/amo"
	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

// Errors returned by the host-facing API.
var (
	// ErrStall mirrors HMC_STALL: the target link request queue is full
	// and the host must retry on a later cycle.
	ErrStall = errors.New("device: link request queue full (HMC_STALL)")
	// ErrBadLink reports a link index outside the configuration.
	ErrBadLink = errors.New("device: invalid link index")
	// ErrWrongCUB reports a request whose CUB field does not address this
	// device (topology routing is handled a level above).
	ErrWrongCUB = errors.New("device: request CUB does not match device")
)

// ERRSTAT codes carried in error responses.
const (
	// ErrstatOK marks a successful response.
	ErrstatOK uint8 = 0
	// ErrstatBadAddr marks an out-of-range target address.
	ErrstatBadAddr uint8 = 0x01
	// ErrstatInactiveCMC marks a CMC request whose command has no active
	// registered operation (paper §IV-C2).
	ErrstatInactiveCMC uint8 = 0x02
	// ErrstatCMCFault marks a CMC operation whose execute function
	// returned an error.
	ErrstatCMCFault uint8 = 0x03
	// ErrstatInternal marks any other execution fault.
	ErrstatInternal uint8 = 0x04
	// ErrstatBlockViolation marks a DRAM request that exceeds the
	// configured maximum block size or crosses a block boundary.
	ErrstatBlockViolation uint8 = 0x05
	// ErrstatPoisoned marks a request that arrived with the poison bit
	// set: the device answers it with a DINV error response instead of
	// executing it.
	ErrstatPoisoned uint8 = 0x06
)

// Bits posted to the ERR register on internal faults.
const (
	// ErrBitAMOFault marks an atomic-unit execution fault.
	ErrBitAMOFault uint64 = 1 << 0
	// ErrBitCMCFault marks a CMC execute-function fault.
	ErrBitCMCFault uint64 = 1 << 1
	// ErrBitAccessFault marks a dropped posted request (bad address or
	// block violation) that had no response channel to report through.
	ErrBitAccessFault uint64 = 1 << 2
	// ErrBitPoisonFault marks a poisoned posted request that was dropped
	// without a response channel to report through.
	ErrBitPoisonFault uint64 = 1 << 3
)

// Flight is a packet in flight through the device, request or response
// direction.
type Flight struct {
	// Rqst is set on the request path.
	Rqst *packet.Rqst
	// Rsp is set on the response path.
	Rsp *packet.Rsp
	// Link is the ingress link for requests and the egress link for
	// responses.
	Link int
	// SendCycle is the device cycle the host submitted the request on.
	SendCycle uint64
	// ExecCycle is the device cycle the vault executed the request on.
	ExecCycle uint64
}

// Stats aggregates device-lifetime counters.
type Stats struct {
	// Cycles is the number of Clock() calls.
	Cycles uint64
	// Rqsts counts executed requests by command class.
	Rqsts [8]uint64
	// Rsps counts responses delivered to host link queues.
	Rsps uint64
	// SendStalls counts Send rejections (HMC_STALL).
	SendStalls uint64
	// BankConflicts counts executions deferred because the bank was busy.
	BankConflicts uint64
	// XbarBackpressure counts cycles a crossbar queue head was blocked by
	// a full vault queue.
	XbarBackpressure uint64
	// RspBackpressure counts vault executions deferred by a full response
	// queue.
	RspBackpressure uint64
	// LinkSerStalls counts cycles a link port exhausted its per-cycle
	// FLIT serialization budget with packets still waiting.
	LinkSerStalls uint64
	// LinkRetries counts completed link retry sequences (CRC-fault
	// injection, Config.LinkFaultPeriod).
	LinkRetries uint64
	// RqstFlits and RspFlits count FLITs serialized across host links in
	// each direction — the numerators of the effective link bandwidth
	// (stats.LinkBandwidthGBs).
	RqstFlits, RspFlits uint64
	// RowHits and RowMisses count open-page outcomes when the row-buffer
	// model is enabled (Config.RowMissPenaltyCycles).
	RowHits, RowMisses uint64
	// ErrResponses counts error responses generated.
	ErrResponses uint64
	// CRCErrors counts packets whose corrupted wire image failed the
	// receive-side CRC check (fault.CRC and fault.Flip injections).
	CRCErrors uint64
	// Drops counts whole-packet losses recovered by the sender's
	// retransmit timeout (fault.Drop injections).
	Drops uint64
	// DownWindows counts transient link-down windows (fault.Down).
	DownWindows uint64
	// RetryBufStalls counts transmission attempts deferred because the
	// direction's RetrySlots-deep retry buffer was full.
	RetryBufStalls uint64
	// PoisonedRqsts counts requests rejected for carrying the poison bit.
	PoisonedRqsts uint64
}

// RqstsOfClass returns the executed-request count for one command class.
func (s Stats) RqstsOfClass(c hmccmd.Class) uint64 { return s.Rqsts[c] }

// Device is one simulated HMC device.
type Device struct {
	// ID is the device's CUB identity.
	ID int
	// Cfg is the validated device configuration.
	Cfg config.Config

	links  []Link
	xbar   Crossbar
	vaults []Vault
	regs   *RegFile

	amap   *addr.Map
	store  *mem.Store
	amoU   *amo.Unit
	cmcTab *cmc.Table
	tracer trace.Tracer

	// spans, when non-nil, is the request-lifecycle flight recorder
	// (SetSpans). Every hook is guarded by a nil check plus a lock-free
	// Tracked bitmap read, so the disabled path costs one predictable
	// branch and the untracked path one array load.
	spans *span.Tracer

	cycle uint64
	stats Stats

	// ExecHook, when non-nil, is invoked for every executed request with
	// its command class, request/response FLIT counts and the number of
	// 16-byte DRAM blocks touched. The simulator layer uses it to drive
	// the optional power model without coupling the device to it. It
	// runs on the clocking goroutine, in vault order.
	ExecHook func(class hmccmd.Class, rqstFlits, rspFlits, dramBlocks int)

	// ForceWalk disables idle skipping, making every clock phase walk
	// every vault and sample every queue exactly as the original
	// implementation did. Results are bit-identical either way (the
	// equivalence tests prove it); the switch exists for those tests and
	// for debugging.
	ForceWalk bool

	// flightPool recycles Flight envelopes and rqstPool recycles the
	// device-owned request packets they carry: Send draws from both (it
	// adopts the caller's request by deep copy, so the caller may reuse
	// its buffers immediately), Recv and the execute phase return to
	// them. Misses allocate in chunks to amortize warm-up.
	flightPool []*Flight
	rqstPool   []*packet.Rqst

	// vaultRqstMask and vaultRspMask are bitsets of vaults whose request
	// (resp. response) queues are non-empty, maintained at push/pop so
	// the clock phases touch only active vaults.
	vaultRqstMask, vaultRspMask []uint64

	// latHist, when RegisterMetrics has run, holds one end-to-end latency
	// histogram per command class; Recv observes the send-to-recv cycle
	// count into it. Observe is a handful of atomic ops and allocates
	// nothing, so the host-path cost of enabling metrics is flat. Nil
	// entries (metrics disabled) cost one branch.
	latHist [hmccmd.NumClasses]*metrics.Histogram
	// retryHist, when RegisterMetrics has run, records the cycle count of
	// each completed link retry sequence (fault injection to retransmit).
	retryHist *metrics.Histogram

	// faultPlan is the random fault environment installed by SetFaultPlan;
	// faultWire is the scratch encoding buffer CRC/Flip corruption uses,
	// and dropTimeout/downCycles cache the plan's resolved windows.
	faultPlan   fault.Plan
	faultWire   []uint64
	dropTimeout int
	downCycles  int
}

// New builds a device from a configuration. A nil tracer disables
// tracing.
func New(id int, cfg config.Config, tracer trace.Tracer) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= config.MaxDevs {
		return nil, fmt.Errorf("device: id %d out of range [0,%d)", id, config.MaxDevs)
	}
	if tracer == nil {
		tracer = trace.Nop{}
	}
	amap, err := addr.NewMap(cfg)
	if err != nil {
		return nil, err
	}
	d := &Device{
		ID:   id,
		Cfg:  cfg,
		regs: newRegFile(cfg),
		amap: amap,
		// Shard the page table on the vault bits of the address map so
		// each vault's granules pack into whole pages (see mem).
		store:  mem.NewSharded(cfg.CapacityBytes(), cfg.OffsetBits(), cfg.VaultBits()),
		cmcTab: cmc.NewTable(),
		tracer: tracer,
	}
	d.amoU = amo.New(d.store)
	// Queue ring buffers — two per link, two per crossbar port, two per
	// vault — materialize lazily inside queue.Queue as occupancy demands
	// (architected depths are 64-128 slots but most queues in a
	// many-thousand-session fleet stay nearly empty; eager rings cost
	// ~30KB per device). Banks are still carved from one flat array so
	// construction cost stays flat as the structure count grows.
	d.links = make([]Link, cfg.Links)
	for i := range d.links {
		d.links[i].init(i, cfg.LinkDepth)
	}
	d.xbar.init(cfg)
	bankBacking := make([]Bank, cfg.Vaults*cfg.BanksPerVault)
	d.vaults = make([]Vault, cfg.Vaults)
	for i := range d.vaults {
		banks := bankBacking[i*cfg.BanksPerVault : (i+1)*cfg.BanksPerVault]
		d.vaults[i].init(i, cfg, banks)
	}
	d.vaultRqstMask = make([]uint64, (cfg.Vaults+63)/64)
	d.vaultRspMask = make([]uint64, (cfg.Vaults+63)/64)
	// Tie every queue's sample count to the cycle counter so the sample
	// phase may skip empty queues without perturbing the statistics.
	for i := range d.links {
		d.links[i].rqst.SetSampleBase(&d.stats.Cycles)
		d.links[i].rsp.SetSampleBase(&d.stats.Cycles)
	}
	for i := range d.xbar.rqst {
		d.xbar.rqst[i].SetSampleBase(&d.stats.Cycles)
		d.xbar.rsp[i].SetSampleBase(&d.stats.Cycles)
	}
	for i := range d.vaults {
		d.vaults[i].rqst.SetSampleBase(&d.stats.Cycles)
		d.vaults[i].rsp.SetSampleBase(&d.stats.Cycles)
	}
	return d, nil
}

// poolChunk is how many Flights or Rqsts a pool miss materializes at
// once; chunking cuts warm-up allocations without holding excess memory
// (a chunk is well under 1 KB, so a lightly loaded session parked in a
// many-thousand-session server stays lean).
const poolChunk = 8

// getFlight draws a Flight envelope from the device free list.
func (d *Device) getFlight() *Flight {
	if n := len(d.flightPool); n > 0 {
		f := d.flightPool[n-1]
		d.flightPool = d.flightPool[:n-1]
		return f
	}
	chunk := make([]Flight, poolChunk)
	for i := 1; i < len(chunk); i++ {
		d.flightPool = append(d.flightPool, &chunk[i])
	}
	return &chunk[0]
}

// putFlight clears and recycles a Flight envelope. The caller recycles
// any attached Rqst first; the Rsp belongs to the host by then.
func (d *Device) putFlight(f *Flight) {
	*f = Flight{}
	d.flightPool = append(d.flightPool, f)
}

// getRqst draws a device-owned request packet from the free list. The
// packet's stale fields are fully overwritten by CopyFrom at the only
// call site, so no clearing happens here.
func (d *Device) getRqst() *packet.Rqst {
	if n := len(d.rqstPool); n > 0 {
		r := d.rqstPool[n-1]
		d.rqstPool = d.rqstPool[:n-1]
		return r
	}
	chunk := make([]packet.Rqst, poolChunk)
	for i := 1; i < len(chunk); i++ {
		d.rqstPool = append(d.rqstPool, &chunk[i])
	}
	return &chunk[0]
}

// putRqst recycles a device-owned request packet, keeping its payload
// backing array for the next adoption.
func (d *Device) putRqst(r *packet.Rqst) {
	d.rqstPool = append(d.rqstPool, r)
}

// SetFaultPlan installs (or, with a disabled plan, removes) the random
// fault environment: every link direction derives its own deterministic
// injector stream, keyed by device, link and direction, so the fault
// sequence on one link is independent of traffic on every other. Call
// before clocking; installing a plan mid-run starts its streams at the
// current cycle.
func (d *Device) SetFaultPlan(p fault.Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.faultPlan = p
	if !p.Enabled() {
		for i := range d.links {
			d.links[i].rqstDir.inj = nil
			d.links[i].rspDir.inj = nil
		}
		return nil
	}
	d.dropTimeout = p.EffectiveDropTimeout()
	d.downCycles = p.EffectiveDownCycles()
	if d.faultWire == nil {
		// Sized for the largest packet (9 FLITs = 18 words); EncodeInto
		// grows it on the first use if a future command needs more.
		d.faultWire = make([]uint64, 0, 32)
	}
	for i := range d.links {
		l := &d.links[i]
		stream := uint64(d.ID)<<16 | uint64(i)<<1
		l.rqstDir.inj = p.Injector(stream)
		l.rspDir.inj = p.Injector(stream | 1)
	}
	return nil
}

// FaultPlan returns the installed fault plan (the zero value when none).
func (d *Device) FaultPlan() fault.Plan { return d.faultPlan }

// Store exposes the device's backing memory for host-side initialization
// (the simulated equivalent of pre-loading DRAM contents).
func (d *Device) Store() *mem.Store { return d.store }

// CMC exposes the device's CMC registration table; LoadCMC on the
// simulator context is the usual entry point.
func (d *Device) CMC() *cmc.Table { return d.cmcTab }

// Regs exposes the device register file (the JTAG access path).
func (d *Device) Regs() *RegFile { return d.regs }

// AddrMap exposes the device's address decomposition.
func (d *Device) AddrMap() *addr.Map { return d.amap }

// Cycle returns the current device cycle.
func (d *Device) Cycle() uint64 { return d.cycle }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// Link returns the link model for stats inspection.
func (d *Device) Link(i int) (*Link, error) {
	if i < 0 || i >= len(d.links) {
		return nil, fmt.Errorf("%w: %d", ErrBadLink, i)
	}
	return &d.links[i], nil
}

// Vault returns the vault model for stats inspection.
func (d *Device) Vault(i int) (*Vault, error) {
	if i < 0 || i >= len(d.vaults) {
		return nil, fmt.Errorf("device: invalid vault index %d", i)
	}
	return &d.vaults[i], nil
}

// Xbar returns the crossbar model for stats inspection.
func (d *Device) Xbar() *Crossbar { return &d.xbar }

// SetSpans attaches a request-lifecycle span tracer; nil detaches it.
// The tracer only observes (cycle stamps, tags, queue transitions) and
// never changes device behavior, so results stay bit-identical with or
// without it.
func (d *Device) SetSpans(t *span.Tracer) { d.spans = t }

// Spans returns the attached span tracer, nil when tracing is off.
func (d *Device) Spans() *span.Tracer { return d.spans }

// Send submits a decoded request on a host link. A full link queue
// returns ErrStall. The request's CUB must address this device.
//
// The device adopts the request by deep copy into a pooled packet, so
// the caller keeps ownership of r and its payload and may reuse both as
// soon as Send returns — the contract the workload layer's per-thread
// request scratch relies on.
func (d *Device) Send(link int, r *packet.Rqst) error {
	if link < 0 || link >= len(d.links) {
		return fmt.Errorf("%w: %d", ErrBadLink, link)
	}
	if int(r.CUB) != d.ID {
		return fmt.Errorf("%w: CUB %d on device %d", ErrWrongCUB, r.CUB, d.ID)
	}
	f := d.getFlight()
	adopted := d.getRqst()
	adopted.CopyFrom(r)
	f.Rqst, f.Link, f.SendCycle = adopted, link, d.cycle
	if err := d.links[link].rqst.Push(f); err != nil {
		d.putRqst(adopted)
		d.putFlight(f)
		d.stats.SendStalls++
		if d.spans != nil && d.spans.Tracked(r.TAG) {
			d.spans.Point(span.KindSendStall, d.ID, link, -1, r.TAG, d.cycle, 0)
		}
		if d.tracer.Enabled(trace.LevelStall) {
			d.tracer.Emit(trace.Event{
				Cycle: d.cycle, Kind: trace.LevelStall,
				Dev: d.ID, Quad: -1, Vault: -1, Bank: -1,
				Cmd: r.Cmd.String(), Tag: r.TAG, Addr: r.ADRS,
				Detail: "send stall: link request queue full",
			})
		}
		return ErrStall
	}
	if d.spans != nil {
		// Begin makes the tracking decision (TAG modulo / armed budget)
		// on first sight; on a topology-forwarded request already being
		// tracked it records the hop-stage end instead.
		d.spans.Begin(d.ID, link, r.TAG, uint8(r.Cmd.InfoRef().Class), d.cycle)
	}
	return nil
}

// Recv pops the next available response from a host link; ok is false
// when the link response queue is empty.
//
// The returned response belongs to the host. Callers in steady-state
// loops should hand it back via packet.PutRsp (sim.ReleaseRsp) once
// consumed; callers that don't simply let the GC take it.
func (d *Device) Recv(link int) (*packet.Rsp, bool) {
	if link < 0 || link >= len(d.links) {
		return nil, false
	}
	f, ok := d.links[link].rsp.Pop()
	if !ok {
		return nil, false
	}
	rsp := f.Rsp
	if d.spans != nil && d.spans.Tracked(rsp.TAG) {
		// Closes the span unless the request was topology-forwarded
		// (then the collection here is an intermediate hop and the span
		// closes at Tracer.Arrive).
		d.spans.End(d.ID, link, rsp.TAG, d.cycle)
	}
	if d.tracer.Enabled(trace.LevelLatency) {
		d.tracer.Emit(trace.Event{
			Cycle: d.cycle, Kind: trace.LevelLatency,
			Dev: d.ID, Quad: -1, Vault: -1, Bank: -1,
			Cmd: rsp.Cmd.String(), Tag: rsp.TAG,
			Value: d.cycle - f.SendCycle, Detail: "round-trip cycles at recv",
		})
	}
	// The adopted request and the Flight envelope return to the device
	// pools; the response packet belongs to the host now.
	if f.Rqst != nil {
		if h := d.latHist[f.Rqst.Cmd.InfoRef().Class]; h != nil {
			h.Observe(d.cycle - f.SendCycle)
		}
		d.putRqst(f.Rqst)
	}
	d.putFlight(f)
	return rsp, true
}

// SendWire submits a request in its encoded wire form — the []uint64
// packet buffer of the original C API (hmcsim_send). The packet is
// validated (length, CRC, command) and decoded into the link's scratch
// request without allocating, then follows the normal Send path.
func (d *Device) SendWire(link int, words []uint64) error {
	if link < 0 || link >= len(d.links) {
		return fmt.Errorf("%w: %d", ErrBadLink, link)
	}
	l := &d.links[link]
	if err := packet.DecodeRqstInto(&l.wireRqst, words); err != nil {
		return err
	}
	return d.Send(link, &l.wireRqst)
}

// RecvWire pops the next available response from a host link in its
// encoded wire form (hmcsim_recv). The returned slice is the link's
// scratch FLIT buffer: it is valid until the next RecvWire on the same
// link, and the response packet itself is recycled immediately.
func (d *Device) RecvWire(link int) ([]uint64, bool) {
	rsp, ok := d.Recv(link)
	if !ok {
		return nil, false
	}
	l := &d.links[link]
	words, err := rsp.EncodeInto(l.wire)
	packet.PutRsp(rsp)
	if err != nil {
		// Responses are device-built and always encodable; a failure here
		// is a programming error.
		panic(fmt.Sprintf("device: RecvWire encode: %v", err))
	}
	l.wire = words
	return words, true
}
