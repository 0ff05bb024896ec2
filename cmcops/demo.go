package cmcops

import (
	"math/bits"

	"repro/internal/cmc"
	"repro/internal/hmccmd"
	"repro/internal/mem"
)

// PopCountRspCode is the custom response command code hmc_popcount16
// encodes via RSP_CMC.
const PopCountRspCode uint8 = 0xC1

// popCount16 is a demonstration CMC operation, hmc_popcount16 (command
// code 69), that returns the population count of the 16-byte block at
// the target address. It exercises a read-only, one-FLIT-request
// operation with a custom response command code — the RSP_CMC path of
// paper §IV-C1.
var popCount16 = &Template{
	Name:       "hmc_popcount16",
	Rqst:       hmccmd.CMC69,
	RqstLen:    1,
	RspLen:     2,
	RspCmd:     hmccmd.RspCMC,
	RspCmdCode: PopCountRspCode,
	Fn: func(ctx *cmc.ExecContext) error {
		blk, err := ctx.Mem.ReadBlock(ctx.Addr &^ 0xF)
		if err != nil {
			return err
		}
		ctx.RspPayload[0] = uint64(bits.OnesCount64(blk.Lo) + bits.OnesCount64(blk.Hi))
		return nil
	},
}

// maxSwap64 is a demonstration CMC operation, hmc_maxswap64 (command
// code 70): an atomic unsigned fetch-max on the 8-byte operand at the
// target address. The response returns the previous value. Posted-style
// reductions like this are a classic PIM candidate the Gen2 AMO set
// lacks.
var maxSwap64 = &Template{
	Name:    "hmc_maxswap64",
	Rqst:    hmccmd.CMC70,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.RdRS,
	Fn: func(ctx *cmc.ExecContext) error {
		addr := ctx.Addr &^ 0x7
		v, err := ctx.Mem.ReadUint64(addr)
		if err != nil {
			return err
		}
		if cand := ctx.RqstPayload[0]; cand > v {
			if err := ctx.Mem.WriteUint64(addr, cand); err != nil {
				return err
			}
		}
		ctx.RspPayload[0] = v
		return nil
	},
}

// visitNode is a demonstration CMC operation, hmc_visit (command code
// 71), tailored to graph traversal (paper §II cites CAS-offloaded BFS):
// it atomically claims an unvisited vertex. The 16-byte block holds the
// visited flag in bits [63:0] and the discovering thread/level in
// [127:64]; the response returns 1 when this request claimed the vertex.
var visitNode = &Template{
	Name:    "hmc_visit",
	Rqst:    hmccmd.CMC71,
	RqstLen: 2,
	RspLen:  2,
	RspCmd:  hmccmd.WrRS,
	Fn: func(ctx *cmc.ExecContext) error {
		base := ctx.Addr &^ 0xF
		blk, err := ctx.Mem.ReadBlock(base)
		if err != nil {
			return err
		}
		if blk.Lo == 0 {
			if err := ctx.Mem.WriteBlock(base, mem.Block{Lo: 1, Hi: ctx.RqstPayload[0]}); err != nil {
				return err
			}
			ctx.RspPayload[0] = RetSuccess
		} else {
			ctx.RspPayload[0] = RetFailure
		}
		return nil
	},
}
