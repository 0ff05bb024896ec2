// Package cmc implements the Custom Memory Cube operation architecture —
// the primary contribution of the paper (§IV).
//
// The Gen2 command space leaves 70 command codes unused; each is exposed
// as a CMCnn request enum (internal/hmccmd) that a user-supplied operation
// can be bound to at run time, without modifying the simulator core.
//
// # Relationship to the C implementation
//
// The original simulator loads CMC operations from externally compiled
// shared objects via dlopen, resolving three symbols with dlsym:
// cmc_register, cmc_execute (hmcsim_execute_cmc) and cmc_str. In Go the
// same contract is an interface with three methods:
//
//	Register() Descriptor   // cmc_register: resolve the static descriptor
//	Execute(*ExecContext)   // hmcsim_execute_cmc: perform the operation
//	Str() string            // cmc_str: human-readable trace name
//
// Run-time loading is preserved two ways: (a) operation packages register
// factories by name in a process-wide registry (the analogue of a shared-
// object search path; Open is the dlopen analogue), and (b) the script
// sub-package parses .cmc operation definitions from external files at
// run time. Go's plugin package is deliberately not used: it is
// Linux-only and fragile for offline builds, and the architectural
// property under test — extending the command space through a fixed
// three-entry-point contract — is fully preserved by the registry.
//
// The internal Table mirrors the core library's array of hmc_cmc_t
// structures: one slot per CMC command code, holding the descriptor data
// and the resolved "function pointers" (the Operation value).
package cmc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/hmccmd"
	"repro/internal/mem"
)

// Errors returned by registration and dispatch.
var (
	// ErrNotCMCSlot reports a descriptor naming an architected (non-CMC)
	// command.
	ErrNotCMCSlot = errors.New("cmc: request enum is not a CMC slot")
	// ErrCmdMismatch reports a descriptor whose Cmd code disagrees with
	// its Rqst enum (paper Table III: "Must match the rqst field").
	ErrCmdMismatch = errors.New("cmc: cmd code does not match rqst enum")
	// ErrBadDescriptor reports out-of-range descriptor lengths or a
	// missing response code.
	ErrBadDescriptor = errors.New("cmc: invalid descriptor")
	// ErrSlotBusy reports a load against a command code that already has
	// an active operation.
	ErrSlotBusy = errors.New("cmc: command code already registered")
	// ErrInactive reports a request for a CMC command with no registered
	// operation; it mirrors the paper's "if the command is not marked as
	// active, an error is returned" (§IV-C2).
	ErrInactive = errors.New("cmc: command not active")
	// ErrUnknownOp is the dlopen-failure analogue: no operation with the
	// requested name exists in the registry.
	ErrUnknownOp = errors.New("cmc: unknown operation name")
	// ErrTableFull reports more loads than available CMC slots.
	ErrTableFull = errors.New("cmc: all 70 CMC slots in use")
)

// Descriptor carries the static, per-operation data the C implementation
// keeps in required static globals (paper Table III).
type Descriptor struct {
	// OpName uniquely identifies the operation in trace files.
	OpName string
	// Rqst is the CMC request enum the operation binds to.
	Rqst hmccmd.Rqst
	// Cmd is the decimal command code; it must match Rqst.Code().
	Cmd uint32
	// RqstLen is the request packet length in FLITs, including header and
	// tail (1..17).
	RqstLen uint8
	// RspLen is the response packet length in FLITs; zero marks the
	// operation as posted.
	RspLen uint8
	// RspCmd is the response command type; RspCMC enables a custom code.
	RspCmd hmccmd.Resp
	// RspCmdCode is the custom 8-bit response command code used when
	// RspCmd is RspCMC.
	RspCmdCode uint8
}

// Validate checks the descriptor against the architected constraints.
func (d Descriptor) Validate() error {
	if d.OpName == "" {
		return fmt.Errorf("%w: empty op_name", ErrBadDescriptor)
	}
	if !d.Rqst.IsCMC() {
		return fmt.Errorf("%w: %v", ErrNotCMCSlot, d.Rqst)
	}
	if uint32(d.Rqst.Code()) != d.Cmd {
		return fmt.Errorf("%w: cmd=%d but %v has code %d", ErrCmdMismatch, d.Cmd, d.Rqst, d.Rqst.Code())
	}
	if d.RqstLen < 1 || d.RqstLen > hmccmd.MaxPacketFlits {
		return fmt.Errorf("%w: rqst_len=%d (want 1..%d)", ErrBadDescriptor, d.RqstLen, hmccmd.MaxPacketFlits)
	}
	if d.RspLen > hmccmd.MaxPacketFlits {
		return fmt.Errorf("%w: rsp_len=%d (want 0..%d)", ErrBadDescriptor, d.RspLen, hmccmd.MaxPacketFlits)
	}
	if d.RspLen == 0 && d.RspCmd != hmccmd.RspNone {
		return fmt.Errorf("%w: posted op (rsp_len=0) with response command %v", ErrBadDescriptor, d.RspCmd)
	}
	if d.RspLen > 0 && d.RspCmd == hmccmd.RspNone {
		return fmt.Errorf("%w: rsp_len=%d with RSP_NONE", ErrBadDescriptor, d.RspLen)
	}
	return nil
}

// MemoryAccess is the in-situ view of vault memory handed to an executing
// operation. The C implementation reaches memory through the hmc_sim_t
// context pointer; the Go interface scopes the same capability.
type MemoryAccess interface {
	ReadBlock(addr uint64) (mem.Block, error)
	WriteBlock(addr uint64, b mem.Block) error
	ReadUint64(addr uint64) (uint64, error)
	WriteUint64(addr, v uint64) error
}

// ExecContext carries the execution-function arguments of paper Table IV.
type ExecContext struct {
	// Dev, Quad, Vault and Bank locate where the operation executes.
	Dev, Quad, Vault, Bank uint32
	// Addr is the target base address of the incoming request.
	Addr uint64
	// Length is the incoming request length in FLITs.
	Length uint32
	// Head and Tail are the raw packet header and tail words.
	Head, Tail uint64
	// RqstPayload is the raw request data payload (the words between
	// header and tail). The implementor discerns its internal structure.
	RqstPayload []uint64
	// RspPayload is the outgoing response data buffer, pre-sized to
	// 2*(RspLen-1) words; the implementor fills any data it returns.
	// Callers may supply a zeroed buffer of exactly that size to avoid
	// the per-execute allocation; Execute replaces it otherwise.
	// An operation may instead point RspPayload at a slice of its own of
	// the same length: the device copies the words into its response
	// and never keeps the slice. A slice of any other length faults the
	// request (ERRSTAT CMC fault), as an error from Execute does.
	RspPayload []uint64
	// Mem is the in-situ memory of the executing vault's device.
	Mem MemoryAccess
	// Cycle is the device clock cycle of execution.
	Cycle uint64
}

// Operation is a user-implemented CMC operation: the Go analogue of the
// three dlsym-resolved entry points.
type Operation interface {
	// Register resolves the operation's static descriptor data
	// (cmc_register).
	Register() Descriptor
	// Execute performs the operation (hmcsim_execute_cmc). A non-nil
	// error poisons the response with an error status; it does not abort
	// the simulation.
	Execute(ctx *ExecContext) error
	// Str returns the human-readable name printed in trace logs
	// (cmc_str).
	Str() string
}

// Slot is the hmc_cmc_t equivalent: the registration record for one CMC
// command code.
type Slot struct {
	// Desc is the descriptor resolved at load time.
	Desc Descriptor
	// Op holds the resolved entry points.
	Op Operation
	// Active marks the slot as accepting packets (§IV-C2).
	Active bool
}

// Table is the per-simulator CMC registration table. Its slot array is
// built by the first Load, so a simulator that loads no operation pays
// a pointer for it.
type Table struct {
	slots *[hmccmd.NumCodes]*Slot
	count int
}

// NewTable returns an empty registration table.
func NewTable() *Table { return &Table{} }

// Load registers an operation, performing the paper's registration
// sequence: resolve the three entry points (the Operation value), call
// cmc_register (Register), validate the descriptor, and mark the slot
// active. It fails if the target command code is already active.
func (t *Table) Load(op Operation) error {
	if op == nil {
		return fmt.Errorf("%w: nil operation", ErrBadDescriptor)
	}
	d := op.Register()
	if err := d.Validate(); err != nil {
		return err
	}
	if t.count >= hmccmd.NumCMCSlots {
		return ErrTableFull
	}
	if t.slots == nil {
		t.slots = new([hmccmd.NumCodes]*Slot)
	}
	code := uint8(d.Cmd)
	if s := t.slots[code]; s != nil && s.Active {
		return fmt.Errorf("%w: code %d (%s)", ErrSlotBusy, code, s.Desc.OpName)
	}
	t.slots[code] = &Slot{Desc: d, Op: op, Active: true}
	t.count++
	return nil
}

// Unload deactivates the operation bound to a command code, freeing the
// slot for reuse.
func (t *Table) Unload(code uint8) error {
	if _, ok := t.Slot(code); !ok {
		return fmt.Errorf("%w: code %d", ErrInactive, code)
	}
	t.slots[code] = nil
	t.count--
	return nil
}

// Trim drops the slot array of a table with no active operation; the
// next Load builds it again.
func (t *Table) Trim() {
	if t.count == 0 {
		t.slots = nil
	}
}

// Slot returns the active slot for a command code; ok is false for
// inactive or unbound codes.
func (t *Table) Slot(code uint8) (*Slot, bool) {
	if code >= hmccmd.NumCodes || t.slots == nil || t.slots[code] == nil || !t.slots[code].Active {
		return nil, false
	}
	return t.slots[code], true
}

// Count returns the number of active operations.
func (t *Table) Count() int { return t.count }

// Active returns the active slots in ascending command-code order.
func (t *Table) Active() []*Slot {
	if t.slots == nil {
		return nil
	}
	var out []*Slot
	for _, s := range t.slots {
		if s != nil && s.Active {
			out = append(out, s)
		}
	}
	return out
}

// --- Process-wide operation registry (the dlopen search-path analogue) ---

var registry = struct {
	sync.RWMutex
	factories map[string]func() Operation
}{factories: make(map[string]func() Operation)}

// RegisterFactory publishes an operation constructor under a name, the
// analogue of installing a CMC shared object where the simulator can find
// it. Operation packages call it from init(). It panics on duplicate
// names, which indicates conflicting op libraries.
func RegisterFactory(name string, factory func() Operation) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("cmc: duplicate operation factory %q", name))
	}
	registry.factories[name] = factory
}

// Open instantiates a registered operation by name — the dlopen/dlsym
// analogue. Unknown names return ErrUnknownOp.
func Open(name string) (Operation, error) {
	registry.RLock()
	factory, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOp, name)
	}
	return factory(), nil
}

// Names lists the registered operation names in sorted order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
