package cmcops

import (
	"repro/internal/cmc"
	"repro/internal/hmccmd"
)

// Template mirrors the paper's CMC template source (§IV-D): in the C
// distribution every entry point except cmc_execute "is provided by the
// CMC template source within the HMC-Sim 2.0 source tree", leaving the
// user to implement only the operation itself. Template does the same in
// Go: fill in the descriptor fields and the Execute function; Register
// and Str come for free. Every operation this package ships is a
// Template, held behind a pointer so that binding it allocates nothing
// (a *Template satisfies cmc.Operation through the value methods).
//
//	op := cmcops.Template{
//	    Name:    "hmc_fetchadd",
//	    Rqst:    hmccmd.CMC85,
//	    RqstLen: 2,
//	    RspLen:  2,
//	    RspCmd:  hmccmd.RdRS,
//	    Fn: func(ctx *cmc.ExecContext) error {
//	        v, err := ctx.Mem.ReadUint64(ctx.Addr &^ 0x7)
//	        if err != nil {
//	            return err
//	        }
//	        ctx.RspPayload[0] = v
//	        return ctx.Mem.WriteUint64(ctx.Addr&^0x7, v+ctx.RqstPayload[0])
//	    },
//	}
//	_ = simulator.LoadCMCOp(op)
type Template struct {
	// Name uniquely identifies the operation in trace files (op_name).
	Name string
	// Rqst is the CMC slot to bind; the command code is derived from it,
	// so the cmd/rqst consistency rule of Table III holds by
	// construction.
	Rqst hmccmd.Rqst
	// RqstLen and RspLen are the packet lengths in FLITs.
	RqstLen, RspLen uint8
	// RspCmd is the response command; RspCmdCode applies when RspCmd is
	// RspCMC.
	RspCmd     hmccmd.Resp
	RspCmdCode uint8
	// Fn is the operation body — the one piece the user must supply
	// (hmcsim_execute_cmc).
	Fn func(ctx *cmc.ExecContext) error
}

// Register implements cmc.Operation.
func (t Template) Register() cmc.Descriptor {
	return cmc.Descriptor{
		OpName:     t.Name,
		Rqst:       t.Rqst,
		Cmd:        uint32(t.Rqst.Code()),
		RqstLen:    t.RqstLen,
		RspLen:     t.RspLen,
		RspCmd:     t.RspCmd,
		RspCmdCode: t.RspCmdCode,
	}
}

// Str implements cmc.Operation.
func (t Template) Str() string { return t.Name }

// Execute implements cmc.Operation.
func (t Template) Execute(ctx *cmc.ExecContext) error { return t.Fn(ctx) }

func init() {
	for _, op := range []*Template{
		lock, tryLock, unlock,
		ticketTake, ticketNext, rdLock, rdUnlock, wrLock, wrUnlock,
		popCount16, maxSwap64, visitNode,
	} {
		cmc.RegisterFactory(op.Name, func() cmc.Operation { return op })
	}
}
