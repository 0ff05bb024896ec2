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
// locks. That includes the response free list: every response comes
// from the list of the device that built it and returns there when the
// host releases it (packet.PutRsp), so the host must release responses
// on the goroutine that drives the simulator, before the simulator
// changes hands. Parallelism comes from running independent simulators
// side by side (sweep workers, session-server connections, which pass
// a session from one reader to the next under its stripe lock); those
// share only the process-wide store page pool, a sync.Pool.
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
	"repro/internal/packet"
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
	// Rqst is the request, adopted by copy at Send; it stays with the
	// flight on the response path.
	Rqst packet.Rqst
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
	// Cycles is the number of completed cycles, clocked or skipped. It
	// is also the sample counter of every queue's occupancy statistics,
	// so Clock advances it only once the cycle's phases are done.
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

	// ports holds each host link with its crossbar port once a request
	// has been sent on it (port), and vaults each vault once a request
	// has been routed to it (vault); both nil before that and after Trim.
	ports  []*port
	vaults []*Vault
	regs   *RegFile

	amap   *addr.Map
	store  *mem.Store
	amoU   *amo.Unit
	cmcTab *cmc.Table

	// obs holds the attached observers (Observe): the discrete tracer,
	// the span recorder, the metrics histograms, the power model. Every
	// observation point is one nil check on it.
	obs []Observer

	cycle uint64
	stats Stats

	// ForceWalk disables idle skipping, making every clock phase walk
	// every built port and vault exactly as the original implementation
	// did. Results are bit-identical either way (the equivalence tests
	// prove it); the switch exists for those tests and for debugging.
	ForceWalk bool

	// flights recycles Flight records: Send draws one (it adopts the
	// caller's request by deep copy into it, so the caller may reuse its
	// buffers immediately), Recv and the execute phase return it. A miss
	// allocates one record, so the list holds as many as the session
	// ever had in flight at once.
	flights []*Flight
	// rsps is the response free list the execute phase builds from; a
	// response returns to it when the host releases it (packet.PutRsp),
	// even after a topology forwarded it through another cube.
	rsps packet.RspList
	// cmcCtx is the reusable CMC execute context, allocated on the first
	// CMC dispatch so workloads that never issue custom commands pay
	// nothing for it.
	cmcCtx *cmc.ExecContext

	// Activity masks: bit i is set while queue i of its kind holds a
	// packet — host link i's request (linkRqst) or response (linkRsp)
	// queue, crossbar port i's request or response queue, vault i's
	// request or response queue. A push sets the bit and the pop that
	// empties the queue clears it, so the clock phases, NextEventCycle
	// and HostRspQueued visit only active queues, and never a port or
	// vault that was not built. Config.Validate caps Links at 8 and
	// Vaults at 32, so one word holds each mask.
	linkRqst, linkRsp   uint64
	xbarRqst, xbarRsp   uint64
	vaultRqst, vaultRsp uint64

	// faultPlan is the random fault environment installed by SetFaultPlan;
	// faultWire is the scratch encoding buffer CRC/Flip corruption uses,
	// and dropTimeout/downCycles cache the plan's resolved windows.
	faultPlan   fault.Plan
	faultWire   []uint64
	dropTimeout int
	downCycles  int
}

// New builds a device from a configuration, with no observers attached
// (Observe).
func New(id int, cfg config.Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= config.MaxDevs {
		return nil, fmt.Errorf("device: id %d out of range [0,%d)", id, config.MaxDevs)
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
	}
	d.amoU = amo.New(d.store)
	// New builds only what every run uses: the register file and the
	// port and vault pointer arrays. The rest waits for first use, since
	// most sessions in a many-thousand-session fleet touch little of it:
	// a port (a host link with its crossbar queues) is built when the
	// first request is sent on its link (port); a vault when the first
	// request is routed to it (vault), and its bank records on its first
	// in-range request (execVault); queue ring buffers materialize
	// inside queue.Queue as occupancy demands (architected depths are
	// 64-128 slots); the CMC slot array on the first Load; link retry
	// rings with a fault plan (SetFaultPlan). A session that drives one
	// link into one vault pays for no other link or vault.
	d.ports = make([]*port, cfg.Links)
	d.vaults = make([]*Vault, cfg.Vaults)
	return d, nil
}

// port returns link i's port, building it on first use. Its queues
// integrate occupancy over the cycle counter like every other queue's
// (queue.Queue), so a port built mid-run reports the statistics of one
// that always existed and was empty until now. Under an enabled fault
// plan it gets its injector streams and retry rings here; an injector
// draws only when a packet moves, so a late port draws what one built
// with the device would have.
func (d *Device) port(i int) *port {
	p := d.ports[i]
	if p == nil {
		p = &port{}
		p.ID = i
		p.rqst.Init(d.Cfg.LinkDepth, &d.stats.Cycles)
		p.rsp.Init(d.Cfg.LinkDepth, &d.stats.Cycles)
		p.xrqst.Init(d.Cfg.XbarDepth, &d.stats.Cycles)
		p.xrsp.Init(d.Cfg.XbarDepth, &d.stats.Cycles)
		if d.faultPlan.Enabled() {
			d.armFaults(p)
		}
		d.ports[i] = p
	}
	return p
}

// vault returns vault i, building it on first use.
func (d *Device) vault(i int) *Vault {
	v := d.vaults[i]
	if v == nil {
		v = newVault(i, &d.Cfg, &d.stats.Cycles)
		d.vaults[i] = v
	}
	return v
}

// getFlight draws a Flight from the device free list, allocating one on
// a miss.
func (d *Device) getFlight() *Flight {
	if n := len(d.flights); n > 0 {
		f := d.flights[n-1]
		d.flights = d.flights[:n-1]
		return f
	}
	return new(Flight)
}

// putFlight clears and recycles a Flight, keeping its request's payload
// backing array for the next adoption. Its Rsp belongs to the host or
// to the response free list by then.
func (d *Device) putFlight(f *Flight) {
	*f = Flight{Rqst: packet.Rqst{Payload: f.Rqst.Payload[:0]}}
	d.flights = append(d.flights, f)
}

// SetFaultPlan installs (or, with a disabled plan, removes) the random
// fault environment: every link direction derives its own deterministic
// injector stream, keyed by device, link and direction, so the fault
// sequence on one link is independent of traffic on every other, and
// gets a retry ring for the packets it stamps. Built ports are armed
// now, the rest when they are built (port). Call before clocking;
// installing a plan mid-run starts its streams at the current cycle.
func (d *Device) SetFaultPlan(p fault.Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.faultPlan = p
	if !p.Enabled() {
		for _, pt := range d.ports {
			if pt != nil {
				pt.rqstDir.inj, pt.rqstDir.ring = nil, nil
				pt.rspDir.inj, pt.rspDir.ring = nil, nil
			}
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
	for _, pt := range d.ports {
		if pt != nil {
			d.armFaults(pt)
		}
	}
	return nil
}

// faultStream is the injector stream key of link's request direction;
// its response direction's key is faultStream(link) | 1.
func (d *Device) faultStream(link int) uint64 { return uint64(d.ID)<<16 | uint64(link)<<1 }

// armFaults gives both directions of port p fresh injector streams from
// the installed plan, and retry rings if they have none.
func (d *Device) armFaults(p *port) {
	stream := d.faultStream(p.ID)
	p.rqstDir.inj = d.faultPlan.Injector(stream)
	p.rspDir.inj = d.faultPlan.Injector(stream | 1)
	if p.rqstDir.ring == nil {
		p.rqstDir.ring, p.rspDir.ring = new(retryRing), new(retryRing)
	}
}

// Store exposes the device's backing memory for host-side initialization
// (the simulated equivalent of pre-loading DRAM contents).
func (d *Device) Store() *mem.Store { return d.store }

// CMC exposes the device's CMC registration table; LoadCMC on the
// simulator context is the usual entry point.
func (d *Device) CMC() *cmc.Table { return d.cmcTab }

// Regs exposes the device register file (the JTAG access path).
func (d *Device) Regs() *RegFile { return d.regs }

// Cycle returns the current device cycle.
func (d *Device) Cycle() uint64 { return d.cycle }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// Link returns the link model for stats inspection, building its port
// if no request has been sent on it yet: an unbuilt port and an idle
// built one report the same statistics.
func (d *Device) Link(i int) (*Link, error) {
	if i < 0 || i >= len(d.ports) {
		return nil, fmt.Errorf("%w: %d", ErrBadLink, i)
	}
	return &d.port(i).Link, nil
}

// Vault returns the vault model for stats inspection, building it if no
// request has reached it yet: an unbuilt vault and an empty built one
// report the same statistics.
func (d *Device) Vault(i int) (*Vault, error) {
	if i < 0 || i >= len(d.vaults) {
		return nil, fmt.Errorf("device: invalid vault index %d", i)
	}
	return d.vault(i), nil
}

// Xbar returns the crossbar model for stats inspection.
func (d *Device) Xbar() Crossbar { return Crossbar{d} }

// Send submits a decoded request on a host link. A full link queue
// returns ErrStall. The request's CUB must address this device.
//
// The device adopts the request by deep copy into a pooled flight, so
// the caller keeps ownership of r and its payload and may reuse both as
// soon as Send returns — the contract the workload layer's per-thread
// request scratch relies on.
func (d *Device) Send(link int, r *packet.Rqst) error {
	if link < 0 || link >= len(d.ports) {
		return fmt.Errorf("%w: %d", ErrBadLink, link)
	}
	if int(r.CUB) != d.ID {
		return fmt.Errorf("%w: CUB %d on device %d", ErrWrongCUB, r.CUB, d.ID)
	}
	p := d.port(link)
	f := d.getFlight()
	f.Rqst.CopyFrom(r)
	f.Link, f.SendCycle = link, d.cycle
	if err := p.rqst.Push(f); err != nil {
		d.stats.SendStalls++
		if d.obs != nil {
			d.observe(Event{Stage: StageSendStall, Flight: f, Link: link, Vault: -1})
		}
		d.putFlight(f)
		return ErrStall
	}
	d.linkRqst |= 1 << link
	if d.obs != nil {
		d.observe(Event{Stage: StageSend, Flight: f, Link: link, Vault: -1})
	}
	return nil
}

// Recv pops the next available response from a host link; ok is false
// when the link response queue is empty.
//
// The returned response belongs to the host. Callers in steady-state
// loops should hand it back via packet.PutRsp (sim.ReleaseRsp) once
// consumed, on the goroutine that drives the device; callers that don't
// simply let the GC take it.
func (d *Device) Recv(link int) (*packet.Rsp, bool) {
	if link < 0 || link >= len(d.ports) || d.linkRsp&(1<<link) == 0 {
		return nil, false
	}
	q := &d.ports[link].rsp
	f, _ := q.Pop()
	if q.Empty() {
		d.linkRsp &^= 1 << link
	}
	if d.obs != nil {
		d.observe(Event{Stage: StageRecv, Flight: f, Link: link, Vault: -1})
	}
	// The flight returns to the device's free list; the response packet
	// belongs to the host now.
	rsp := f.Rsp
	d.putFlight(f)
	return rsp, true
}
