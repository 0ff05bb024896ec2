package cmcops

import (
	"repro/internal/cmc"
	"repro/internal/hmccmd"
)

// The paper reserves the lock-value encoding space for "more expressive
// locks (such as soft locks)" (§V-A). This file builds two such families
// as additional CMC operations, exercising the same 16-byte block
// discipline as the mutex trio.
//
// Ticket lock block layout:
//
//	bits [63:0]    next ticket to dispense
//	bits [127:64]  now-serving counter
//
// Reader-writer lock block layout:
//
//	bits [63:0]    reader count (0 = no readers)
//	bits [127:64]  writer TID (0 = no writer)

// ticketTake is hmc_ticket (command code 56): atomically dispense the
// next ticket. The response carries [my ticket, now serving], so the
// caller learns immediately whether it already holds the lock.
var ticketTake = &Template{
	Name:    "hmc_ticket",
	Rqst:    hmccmd.CMC56,
	RqstLen: 1,
	RspLen:  2,
	RspCmd:  hmccmd.RdRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		ctx.RspPayload[0] = blk.Lo // my ticket
		ctx.RspPayload[1] = blk.Hi // now serving
		blk.Lo++
		return ctx.Mem.WriteBlock(base, blk)
	},
}

// ticketNext is hmc_ticket_next (command code 57): release the critical
// section by advancing the now-serving counter. The response carries the
// new serving value.
var ticketNext = &Template{
	Name:    "hmc_ticket_next",
	Rqst:    hmccmd.CMC57,
	RqstLen: 1,
	RspLen:  2,
	RspCmd:  hmccmd.RdRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		blk.Hi++
		ctx.RspPayload[0] = blk.Hi
		return ctx.Mem.WriteBlock(base, blk)
	},
}

// rdLock is hmc_rdlock (command code 58): acquire the lock for reading
// when no writer holds it. Returns 1 on success (reader count
// incremented), 0 otherwise.
var rdLock = &Template{
	Name:    "hmc_rdlock",
	Rqst:    hmccmd.CMC58,
	RqstLen: 1,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Hi != 0 {
			ctx.RspPayload[0] = RetFailure
			return nil
		}
		blk.Lo++
		ctx.RspPayload[0] = RetSuccess
		return ctx.Mem.WriteBlock(base, blk)
	},
}

// rdUnlock is hmc_rdunlock (command code 59): release one read hold.
// Returns 1 on success, 0 when no readers hold the lock.
var rdUnlock = &Template{
	Name:    "hmc_rdunlock",
	Rqst:    hmccmd.CMC59,
	RqstLen: 1,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Lo == 0 {
			ctx.RspPayload[0] = RetFailure
			return nil
		}
		blk.Lo--
		ctx.RspPayload[0] = RetSuccess
		return ctx.Mem.WriteBlock(base, blk)
	},
}

// wrLock is hmc_wrlock (command code 60): acquire the lock for writing
// when neither readers nor a writer hold it. The request payload carries
// the writer's TID (which must be non-zero).
var wrLock = &Template{
	Name:    "hmc_wrlock",
	Rqst:    hmccmd.CMC60,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		tid := ctx.RqstPayload[0]
		if tid == 0 || blk.Hi != 0 || blk.Lo != 0 {
			ctx.RspPayload[0] = RetFailure
			return nil
		}
		blk.Hi = tid
		ctx.RspPayload[0] = RetSuccess
		return ctx.Mem.WriteBlock(base, blk)
	},
}

// wrUnlock is hmc_wrunlock (command code 61): release the write hold;
// only the owning TID succeeds.
var wrUnlock = &Template{
	Name:    "hmc_wrunlock",
	Rqst:    hmccmd.CMC61,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Hi != ctx.RqstPayload[0] {
			ctx.RspPayload[0] = RetFailure
			return nil
		}
		blk.Hi = 0
		ctx.RspPayload[0] = RetSuccess
		return ctx.Mem.WriteBlock(base, blk)
	},
}

// TicketOps returns the ticket-lock operation pair.
func TicketOps() []cmc.Operation {
	return []cmc.Operation{ticketTake, ticketNext}
}

// RWLockOps returns the reader-writer lock operation set.
func RWLockOps() []cmc.Operation {
	return []cmc.Operation{rdLock, rdUnlock, wrLock, wrUnlock}
}
