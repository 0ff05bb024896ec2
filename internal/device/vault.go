package device

import (
	"repro/internal/addr"
	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/queue"
)

// Bank tracks the availability of one DRAM bank. A request executing at
// cycle c occupies the bank through cycle c+BankLatencyCycles-1; with the
// default latency of zero extra cycles the model is purely
// transaction-level, matching the paper's timing-free abstraction (§VII).
type Bank struct {
	readyAt uint64
	// openRow tracks the row left open by the last access, for the
	// optional open-page timing model (Config.RowMissPenaltyCycles).
	openRow uint64
	hasRow  bool
	// Ops counts requests serviced by this bank.
	Ops uint64
}

// Vault is one vault controller: a request queue feeding banked DRAM and
// a response queue draining to the crossbar.
//
// The device builds a vault when the first request is routed to it, and
// the vault's queue ring buffers and bank records materialize on first
// use in turn, so construction stays allocation-light at any vault
// count.
type Vault struct {
	// ID is the device-global vault index; Quad is its quadrant.
	ID, Quad int
	rqst     queue.Queue[*Flight]
	rsp      queue.Queue[*Flight]
	// banks holds nbanks records once the vault has executed an in-range
	// request (bank); nil before that and after Device.Trim.
	banks  []Bank
	nbanks int
}

// newVault builds vault id. Its queues integrate occupancy over the
// device's cycle counter like every other queue's, so a vault built
// mid-run reports the statistics of one that always existed and was
// empty until now.
func newVault(id int, cfg *config.Config, cycles *uint64) *Vault {
	v := &Vault{ID: id, Quad: id / cfg.VaultsPerQuad(), nbanks: cfg.BanksPerVault}
	v.rqst.Init(cfg.QueueDepth, cycles)
	v.rsp.Init(cfg.QueueDepth, cycles)
	return v
}

// bank returns bank i's record, allocating the vault's bank array the
// first time a request touches it.
func (v *Vault) bank(i int) *Bank {
	if v.banks == nil {
		v.banks = make([]Bank, v.nbanks)
	}
	return &v.banks[i]
}

// RqstStats returns the request queue statistics.
func (v *Vault) RqstStats() queue.Stats { return v.rqst.Stats() }

// RspStats returns the response queue statistics.
func (v *Vault) RspStats() queue.Stats { return v.rsp.Stats() }

// BankOps returns the per-bank service counts: BanksPerVault entries,
// all zero for a vault no request has reached.
func (v *Vault) BankOps() []uint64 {
	out := make([]uint64, v.nbanks)
	for i := range v.banks {
		out[i] = v.banks[i].Ops
	}
	return out
}

// execVault services vault i's request queue for the current cycle:
// FIFO order, head-of-line blocking on busy banks and on a full response
// queue. This is the hmcsim_process_rqst() stage of paper Figure 3. On
// the way out it reconciles the vault's activity bits with its queues.
func (d *Device) execVault(i int) {
	v := d.vaults[i]
	for {
		f, ok := v.rqst.Peek()
		if !ok {
			break
		}
		r := &f.Rqst
		info := r.Cmd.InfoRef()
		loc, locErr := d.amap.Decode(r.ADRS)

		// Bank availability (only meaningful for in-range addresses).
		if locErr == nil && d.Cfg.BankLatencyCycles > 0 {
			if b := v.bank(loc.Bank); d.cycle < b.readyAt {
				d.stats.BankConflicts++
				if d.obs != nil {
					d.observe(Event{Stage: StageBankWait, Flight: f, Link: -1, Vault: v.ID, Arg: loc.Bank})
				}
				break
			}
		}

		// Response-queue space: every non-posted request needs one slot.
		needsRsp := info.Class != hmccmd.ClassFlow && info.Rsp != hmccmd.RspNone
		if needsRsp && v.rsp.Full() {
			d.stats.RspBackpressure++
			if d.obs != nil {
				d.observe(Event{Stage: StageRspWait, Flight: f, Link: -1, Vault: v.ID})
			}
			break
		}

		v.rqst.Pop()
		f.ExecCycle = d.cycle
		d.stats.Rqsts[info.Class]++

		if locErr == nil {
			b := v.bank(loc.Bank)
			latency := uint64(d.Cfg.BankLatencyCycles)
			if d.Cfg.BankLatencyCycles > 0 && d.Cfg.RowMissPenaltyCycles > 0 {
				// Open-page model: a row miss pays precharge+activate.
				if b.hasRow && b.openRow == loc.Row {
					d.stats.RowHits++
				} else {
					d.stats.RowMisses++
					latency += uint64(d.Cfg.RowMissPenaltyCycles)
				}
				b.openRow, b.hasRow = loc.Row, true
			}
			b.readyAt = d.cycle + latency
			b.Ops++
		}

		f.Rsp = d.executeRqst(v, f, info, loc, locErr)
		if d.obs != nil {
			d.observe(Event{Stage: StageExecute, Flight: f, Link: -1, Vault: v.ID, Arg: bankOf(loc, locErr)})
		}
		if f.Rsp == nil {
			// Posted or flow: no response packet — the flight ends here.
			d.putFlight(f)
			continue
		}
		// Space was checked above; a failed push here is a programming
		// error surfaced by queue stats in tests.
		_ = v.rsp.Push(f)
	}
	if v.rqst.Empty() {
		d.vaultRqst &^= 1 << i
	}
	if !v.rsp.Empty() {
		d.vaultRsp |= 1 << i
	}
}

// dramBlocksOf returns the number of 16-byte DRAM blocks an executed
// command touches, for energy accounting (PowerSink).
func dramBlocksOf(info *hmccmd.Info) int {
	switch info.Class {
	case hmccmd.ClassRead, hmccmd.ClassWrite, hmccmd.ClassPostedWrite:
		return int(info.DataBytes) / 16
	case hmccmd.ClassAtomic, hmccmd.ClassPostedAtomic, hmccmd.ClassCMC:
		return 1
	default:
		return 0
	}
}

func bankOf(loc addr.Location, err error) int {
	if err != nil {
		return -1
	}
	return loc.Bank
}

// executeRqst performs one request in-situ and builds its response (nil
// for posted/flow commands).
func (d *Device) executeRqst(v *Vault, f *Flight, info *hmccmd.Info, loc addr.Location, locErr error) *packet.Rsp {
	r := &f.Rqst

	// Poisoned packets are never executed: a request that reaches the
	// vault with Pb set (stamped by an upstream cube that detected
	// corruption it could not retry) is answered with a DINV error
	// response; posted poisoned requests have no response channel, so
	// they latch the error register instead.
	if r.Pb {
		d.stats.PoisonedRqsts++
		if info.Class == hmccmd.ClassFlow || info.Rsp == hmccmd.RspNone {
			d.regs.PostError(ErrBitPoisonFault)
			d.stats.ErrResponses++
			return nil
		}
		return d.errorRsp(f, ErrstatPoisoned)
	}

	switch info.Class {
	case hmccmd.ClassFlow:
		return nil

	case hmccmd.ClassCMC:
		return d.executeCMC(v, f, loc, locErr)

	case hmccmd.ClassMode:
		return d.executeMode(f)
	}

	// All remaining classes address DRAM: validate the target first.
	// Posted requests have no response channel, so their faults drop the
	// packet and latch the device error register instead.
	if locErr != nil || d.blockViolation(r, info) {
		if info.Rsp == hmccmd.RspNone {
			d.regs.PostError(ErrBitAccessFault)
			d.stats.ErrResponses++
			return nil
		}
		if locErr != nil {
			return d.errorRsp(f, ErrstatBadAddr)
		}
		return d.errorRsp(f, ErrstatBlockViolation)
	}

	switch info.Class {
	case hmccmd.ClassRead:
		// Zero-copy datapath: the pooled response payload (DataBytes/8
		// always equals the 2*(RspFlits-1) words the response carries) is
		// filled straight from the page bytes.
		rsp := d.dataRsp(f, info.Rsp, info.RspFlits, nil, false)
		if err := d.store.ReadWords(r.ADRS, rsp.Payload); err != nil {
			packet.PutRsp(rsp)
			return d.errorRsp(f, ErrstatBadAddr)
		}
		return rsp

	case hmccmd.ClassWrite, hmccmd.ClassPostedWrite:
		// Zero-copy datapath: payload words land directly in the page,
		// zero-filling up to DataBytes — no intermediate byte buffer.
		if err := d.store.WriteWords(r.ADRS, r.Payload, int(info.DataBytes)); err != nil {
			return d.errorRsp(f, ErrstatBadAddr)
		}
		if info.Class == hmccmd.ClassPostedWrite {
			return nil
		}
		return d.dataRsp(f, info.Rsp, info.RspFlits, nil, false)

	case hmccmd.ClassAtomic, hmccmd.ClassPostedAtomic:
		res, err := d.amoU.Execute(r.Cmd, r.ADRS, r.Payload)
		if err != nil {
			d.regs.PostError(ErrBitAMOFault)
			if info.Class == hmccmd.ClassPostedAtomic {
				return nil
			}
			return d.errorRsp(f, ErrstatInternal)
		}
		if info.Class == hmccmd.ClassPostedAtomic {
			return nil
		}
		return d.dataRsp(f, info.Rsp, info.RspFlits, res.Payload, res.DINV)
	}
	return d.errorRsp(f, ErrstatInternal)
}

// executeCMC dispatches a custom memory cube request against the device's
// registration table (paper Figure 3): inactive commands yield an error
// response, active commands run the user's execute function (the trace
// sink names them by the op's registered name).
func (d *Device) executeCMC(v *Vault, f *Flight, loc addr.Location, locErr error) *packet.Rsp {
	r := &f.Rqst
	slot, ok := d.cmcTab.Slot(r.Cmd.Code())
	if !ok {
		return d.errorRsp(f, ErrstatInactiveCMC)
	}
	if locErr != nil {
		return d.errorRsp(f, ErrstatBadAddr)
	}
	// Draw the response (and its zeroed payload buffer, which the execute
	// context fills in place) from the device's free list before
	// dispatch.
	desc := slot.Desc
	var rsp *packet.Rsp
	if desc.RspLen > 0 {
		rsp = d.rsps.Get(2 * (int(desc.RspLen) - 1))
	}
	if d.cmcCtx == nil {
		d.cmcCtx = new(cmc.ExecContext)
	}
	ctx := d.cmcCtx
	*ctx = cmc.ExecContext{
		Dev:         uint32(d.ID),
		Quad:        uint32(v.Quad),
		Vault:       uint32(v.ID),
		Bank:        uint32(loc.Bank),
		Addr:        r.ADRS,
		Length:      uint32(r.LNG),
		Head:        r.EncodeHead(),
		Tail:        r.EncodeTail(),
		RqstPayload: r.Payload,
		Mem:         d.store,
		Cycle:       d.cycle,
	}
	if rsp != nil {
		ctx.RspPayload = rsp.Payload
	}
	// The slot lookup above already resolved the operation, and the free
	// list pre-sized RspPayload to exactly what the descriptor demands,
	// so call the registered execute entry point directly (the CMC
	// branch of hmcsim_process_rqst, paper Figure 3). An operation that
	// leaves a payload of the wrong length behind faults like one that
	// returns an error.
	if err := slot.Op.Execute(ctx); err != nil || (rsp != nil && len(ctx.RspPayload) != len(rsp.Payload)) {
		packet.PutRsp(rsp)
		d.regs.PostError(ErrBitCMCFault)
		return d.errorRsp(f, ErrstatCMCFault)
	}
	if rsp == nil {
		return nil // posted CMC operation
	}
	rsp.Cmd = desc.RspCmd
	rsp.CUB = uint8(d.ID)
	rsp.TAG = r.TAG
	rsp.LNG = desc.RspLen
	rsp.SLID = r.SLID
	// An operation may have swapped in its own buffer of the right
	// length: copy it out, so the response never adopts (and later
	// recycles) memory the operation owns.
	copy(rsp.Payload, ctx.RspPayload)
	if desc.RspCmd == hmccmd.RspCMC {
		rsp.CmdCode = desc.RspCmdCode
	} else if code, ok := desc.RspCmd.Code(); ok {
		rsp.CmdCode = code
	}
	return rsp
}

// executeMode services MD_RD/MD_WR mode requests: the ADRS field selects
// the register.
func (d *Device) executeMode(f *Flight) *packet.Rsp {
	r := &f.Rqst
	reg := Reg(r.ADRS & 0xFF)
	switch r.Cmd {
	case hmccmd.MDRD:
		val, err := d.regs.Read(reg)
		if err != nil {
			return d.errorRsp(f, ErrstatBadAddr)
		}
		rsp := d.dataRsp(f, hmccmd.MdRdRS, r.Cmd.Info().RspFlits, nil, false)
		rsp.Payload[0] = val
		return rsp
	case hmccmd.MDWR:
		if err := d.regs.Write(reg, r.Payload[0]); err != nil {
			return d.errorRsp(f, ErrstatBadAddr)
		}
		return d.dataRsp(f, hmccmd.MdWrRS, r.Cmd.Info().RspFlits, nil, false)
	}
	return d.errorRsp(f, ErrstatInternal)
}

// blockViolation reports a DRAM request that exceeds the configured
// maximum block size or crosses an interleave-block boundary; the HMC
// specification forbids both.
func (d *Device) blockViolation(r *packet.Rqst, info *hmccmd.Info) bool {
	n := uint64(info.DataBytes)
	if n == 0 {
		return false
	}
	block := uint64(d.Cfg.MaxBlockSize)
	if n > block {
		return true
	}
	return r.ADRS%block+n > block
}

// dataRsp builds a success response around a free-list packet whose
// zeroed payload is sized to the response length; a non-nil payload
// argument is copied in (and zero-padded by construction when shorter).
func (d *Device) dataRsp(f *Flight, cmd hmccmd.Resp, flits uint8, payload []uint64, dinv bool) *packet.Rsp {
	r := &f.Rqst
	rsp := d.rsps.Get(2 * (int(flits) - 1))
	copy(rsp.Payload, payload)
	rsp.Cmd = cmd
	rsp.CUB = uint8(d.ID)
	rsp.TAG = r.TAG
	rsp.LNG = flits
	rsp.SLID = r.SLID
	rsp.DINV = dinv
	if code, ok := cmd.Code(); ok {
		rsp.CmdCode = code
	}
	return rsp
}

// errorRsp builds a one-FLIT error response carrying an ERRSTAT code.
func (d *Device) errorRsp(f *Flight, errstat uint8) *packet.Rsp {
	d.stats.ErrResponses++
	r := &f.Rqst
	code, _ := hmccmd.RspError.Code()
	rsp := d.rsps.Get(0)
	rsp.Cmd = hmccmd.RspError
	rsp.CmdCode = code
	rsp.CUB = uint8(d.ID)
	rsp.TAG = r.TAG
	rsp.LNG = 1
	rsp.SLID = r.SLID
	rsp.DINV = true
	rsp.ERRSTAT = errstat
	return rsp
}
