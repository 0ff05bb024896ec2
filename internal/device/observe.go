package device

import (
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/power"
	"repro/internal/span"
	"repro/internal/trace"
)

// Stage names one observation point of the device pipeline: a stage a
// packet ends, or a marker for why it waits. Each fires one Event whose
// Link and Vault locate it, -1 where not applicable.
type Stage uint8

// Observation points, in pipeline order.
const (
	StageSend        Stage = iota // Send accepted the request onto host link Link
	StageSendStall                // Send refused it, the link queue full (HMC_STALL)
	StageRetryDone                // first attempt after a link retry sequence; Arg = its cycles
	StageRetryStall               // an attempt on link Link waits for a retry-buffer slot
	StageFault                    // an injected fault hit the head packet; Arg = its fault.Kind
	StageLinkIngress              // the request crossed link Link into the crossbar
	StageXbarBlocked              // crossbar port Link's head waits on vault Vault's full queue
	StageVaultEnq                 // the request entered vault Vault's request queue
	StageBankWait                 // the request heads its vault queue behind busy bank Arg
	StageRspWait                  // vault Vault defers it, its response queue full
	StageExecute                  // vault Vault executed it; Flight.Rsp is nil when posted; Arg = bank or -1
	StageRspXbar                  // the response left vault Vault for crossbar port Link
	StageRspEgress                // the response crossed onto host link Link
	StageRecv                     // the host popped the response from link Link
)

// Event is one observation. It travels by value, so firing it
// allocates nothing.
type Event struct {
	Stage       Stage
	Flight      *Flight
	Link, Vault int
	Arg         int
}

// Observer is a sink of the device's pipeline events: the discrete
// tracer, the span recorder, the metrics histograms and the power model
// each attach one (TraceSink, SpanSink, RegisterMetrics, PowerSink).
// Observe runs on the clocking goroutine at the point the event names,
// before the device recycles the flight (a send stall, a posted
// execute). It may read the flight and the device; it must not change
// either, nor keep the flight after it returns.
type Observer interface {
	Observe(Event)
}

// Observe attaches o to every pipeline event from now on. Observers
// only read, so a run's results are the same whatever is attached; with
// none, each observation point costs one branch.
func (d *Device) Observe(o Observer) { d.obs = append(d.obs, o) }

// observe hands e to every attached observer. Callers check d.obs first.
func (d *Device) observe(e Event) {
	for _, o := range d.obs {
		o.Observe(e)
	}
}

// tag is the TAG of the flight's packet: the response's once there is
// one.
func (f *Flight) tag() uint16 {
	if f.Rsp != nil {
		return f.Rsp.TAG
	}
	return f.Rqst.TAG
}

// TraceSink returns the observer that writes d's records of the paper's
// discrete trace (§IV-A) to t. It checks that t collects a level before
// formatting a record.
func TraceSink(d *Device, t trace.Tracer) Observer { return &traceSink{d, t} }

type traceSink struct {
	d *Device
	t trace.Tracer
}

func (s *traceSink) Observe(e Event) {
	f := e.Flight
	r := &f.Rqst
	switch e.Stage {
	case StageSendStall:
		s.request(trace.LevelStall, e, -1, "send stall: link request queue full")
	case StageXbarBlocked:
		s.request(trace.LevelStall, e, -1, "xbar head blocked: vault request queue full")
	case StageBankWait:
		s.request(trace.LevelBank, e, e.Arg, "bank busy")
	case StageFault:
		detail := faultDetails[fault.Kind(e.Arg)]
		if f.Rsp == nil {
			s.request(trace.LevelStall, e, -1, detail)
		} else if s.t.Enabled(trace.LevelStall) {
			s.emit(trace.LevelStall, e, -1, "", 0, 0, detail) // a response names no command or address
		}
	case StageExecute:
		// An op that ran is named under its registered name, ahead of
		// its request's RQST and RSP records.
		if s.t.Enabled(trace.LevelCMC) && cmcRan(f) {
			slot, _ := s.d.cmcTab.Slot(r.Cmd.Code())
			s.emit(trace.LevelCMC, e, e.Arg, slot.Op.Str(), r.ADRS, 0, "")
		}
		s.request(trace.LevelRqst, e, e.Arg, "")
		if f.Rsp != nil && s.t.Enabled(trace.LevelRsp) {
			s.emit(trace.LevelRsp, e, e.Arg, f.Rsp.Cmd.String(), r.ADRS, uint64(f.Rsp.ERRSTAT), "")
		}
	case StageRecv:
		if s.t.Enabled(trace.LevelLatency) {
			s.emit(trace.LevelLatency, e, -1, f.Rsp.Cmd.String(), 0, s.d.cycle-f.SendCycle, "round-trip cycles at recv")
		}
	}
}

// faultDetails is the STALL record detail of each injected fault kind.
var faultDetails = map[fault.Kind]string{
	fault.CRC:  "link CRC fault: retry sequence",
	fault.Flip: "injected bit flip: retry sequence",
	fault.Drop: "injected packet drop: awaiting retransmit timeout",
	fault.Down: "injected link-down window",
}

// request writes a record naming the request's command and address,
// when t collects the level.
func (s *traceSink) request(level trace.Level, e Event, bank int, detail string) {
	if s.t.Enabled(level) {
		r := &e.Flight.Rqst
		s.emit(level, e, bank, r.Cmd.String(), r.ADRS, 0, detail)
	}
}

// emit writes one record located at the event's vault and quadrant.
func (s *traceSink) emit(level trace.Level, e Event, bank int, cmd string, addr, value uint64, detail string) {
	quad := -1
	if e.Vault >= 0 {
		quad = e.Vault / s.d.Cfg.VaultsPerQuad()
	}
	s.t.Emit(trace.Event{
		Cycle: s.d.cycle, Kind: level,
		Dev: s.d.ID, Quad: quad, Vault: e.Vault, Bank: bank,
		Cmd: cmd, Tag: e.Flight.tag(), Addr: addr, Value: value, Detail: detail,
	})
}

// cmcRan reports whether an executed request ran a CMC operation: a
// CMC request answered with success, or (a posted op) not at all. An op
// that did not run — an inactive slot, an out-of-range address, a
// failing op, a poisoned request — answers with an error status.
func cmcRan(f *Flight) bool {
	return f.Rqst.Cmd.InfoRef().Class == hmccmd.ClassCMC && (f.Rsp == nil || f.Rsp.ERRSTAT == ErrstatOK)
}

// spanKinds maps each stage the span sink records to its span kind.
var spanKinds = [...]span.Kind{
	StageSend: span.KindHostSend, StageSendStall: span.KindSendStall,
	StageRetryStall: span.KindRetryStall, StageFault: span.KindFault,
	StageLinkIngress: span.KindLinkIngress, StageVaultEnq: span.KindVaultEnq,
	StageBankWait: span.KindBankWait, StageRspWait: span.KindRspWait, StageExecute: span.KindExecute,
	StageRspXbar: span.KindRspXbar, StageRspEgress: span.KindRspEgress, StageRecv: span.KindHostRecv,
}

// SpanSink returns the observer that records d's pipeline stages into
// the span recorder t.
func SpanSink(d *Device, t *span.Tracer) Observer { return &spanSink{d, t} }

type spanSink struct {
	d *Device
	t *span.Tracer
}

func (s *spanSink) Observe(e Event) {
	f, tag := e.Flight, e.Flight.tag()
	switch {
	case e.Stage == StageRetryDone, e.Stage == StageXbarBlocked:
		return // the ring has no kind for these
	case e.Stage != StageSend && !s.t.Tracked(tag):
		return // only a send opens a span: one bitmap read for the rest
	}
	var class uint8
	arg := uint32(e.Arg) // the bank of a bank wait, the kind of a fault
	switch e.Stage {
	case StageSend:
		class = uint8(f.Rqst.Cmd.InfoRef().Class)
	case StageExecute:
		arg = span.ArgPosted
		if f.Rsp != nil {
			arg = uint32(f.Rsp.ERRSTAT)
		}
	}
	s.t.Record(spanKinds[e.Stage], s.d.ID, e.Link, e.Vault, tag, class, s.d.cycle, arg)
}

// PowerSink returns the observer that charges every executed request to
// the power model m: its FLITs each way, the DRAM blocks it touched
// and, for atomics and CMC operations, the ALU.
func PowerSink(m *power.Model) Observer { return &powerSink{m} }

type powerSink struct{ m *power.Model }

func (s *powerSink) Observe(e Event) {
	if e.Stage != StageExecute {
		return
	}
	r := &e.Flight.Rqst
	info := r.Cmd.InfoRef()
	rqstFlits := int(r.LNG)
	if rqstFlits == 0 {
		rqstFlits = int(info.RqstFlits)
	}
	rspFlits := 0
	if rsp := e.Flight.Rsp; rsp != nil {
		rspFlits = int(rsp.LNG)
	}
	s.m.ChargeRequest(info.Class, rqstFlits, rspFlits, dramBlocksOf(info))
}
