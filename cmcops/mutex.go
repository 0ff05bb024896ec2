// Package cmcops is the sample Custom Memory Cube operation library: the
// "user library structure" of paper §IV-D, kept outside the simulator
// core exactly as the paper's separable-implementation requirement
// demands.
//
// The package provides the paper's case study (§V-A, Table V) — three
// operations implementing an atomic mutex in any 16-byte block of HMC
// memory — plus two demonstration operations showing non-mutex uses of
// the CMC command space.
//
// # The HMC mutex data structure (paper Figure 4)
//
// A mutex occupies one 16-byte (one data FLIT) block:
//
//	bits [63:0]    lock value; any non-zero value means locked
//	bits [127:64]  thread/task ID of the current owner (undefined when
//	               the lock is clear)
//
// All operations carry the requesting thread ID in the first word of the
// two-FLIT request packet.
package cmcops

import (
	"repro/internal/cmc"
	"repro/internal/hmccmd"
	"repro/internal/mem"
)

// Thread-visible return values of hmc_lock and hmc_unlock.
const (
	// RetSuccess is returned in the response payload when the lock or
	// unlock took effect.
	RetSuccess = 1
	// RetFailure is returned when the operation did not take effect.
	RetFailure = 0
)

// lock is the hmc_lock operation (Table V, command code 125):
//
//	IF (ADDR[63:0] == 0) { ADDR[127:64] = TID; ADDR[63:0] = 1; RET 1 }
//	ELSE { RET 0 }
//
// The request payload word 0 carries the requesting thread ID; the
// response payload word 0 carries 1 on success and 0 on failure.
var lock = &Template{
	Name:    "hmc_lock",
	Rqst:    hmccmd.CMC125,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		tid := ctx.RqstPayload[0]
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Lo == 0 {
			if err := ctx.Mem.WriteBlock(base, mem.Block{Lo: 1, Hi: tid}); err != nil {
				return err
			}
			ctx.RspPayload[0] = RetSuccess
		} else {
			ctx.RspPayload[0] = RetFailure
		}
		return nil
	},
}

// tryLock is the hmc_trylock operation (Table V, command code 126). If
// the lock is free it is acquired for the requesting thread; either way
// the response payload word 0 carries the thread ID that owns the lock
// after the operation — "it is up to the encountering thread to check
// the response payload against its respective thread ID" (§V-A).
var tryLock = &Template{
	Name:    "hmc_trylock",
	Rqst:    hmccmd.CMC126,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.RdRS,
	Fn: func(ctx *cmc.ExecContext) error {
		tid := ctx.RqstPayload[0]
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Lo == 0 {
			if err := ctx.Mem.WriteBlock(base, mem.Block{Lo: 1, Hi: tid}); err != nil {
				return err
			}
			ctx.RspPayload[0] = tid
		} else {
			ctx.RspPayload[0] = blk.Hi
		}
		return nil
	},
}

// unlock is the hmc_unlock operation (Table V, command code 127):
//
//	IF (ADDR[127:64] == TID && ADDR[63:0] == 1) { ADDR[63:0] = 0; RET 1 }
//	ELSE { RET 0 }
//
// Only the owning thread can release the lock.
var unlock = &Template{
	Name:    "hmc_unlock",
	Rqst:    hmccmd.CMC127,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		tid := ctx.RqstPayload[0]
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Hi == tid && blk.Lo == 1 {
			if err := ctx.Mem.WriteBlock(base, mem.Block{Lo: 0, Hi: blk.Hi}); err != nil {
				return err
			}
			ctx.RspPayload[0] = RetSuccess
		} else {
			ctx.RspPayload[0] = RetFailure
		}
		return nil
	},
}

// MutexOps returns the coupled mutex operation set in load order.
func MutexOps() []cmc.Operation {
	return []cmc.Operation{lock, tryLock, unlock}
}
