package cmc

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/hmccmd"
	"repro/internal/mem"
)

// testOp is a minimal CMC operation: it adds its request payload word to
// the 8-byte memory operand and returns the original value.
type testOp struct {
	desc     Descriptor
	executed int
}

func (o *testOp) Register() Descriptor { return o.desc }
func (o *testOp) Str() string          { return o.desc.OpName }
func (o *testOp) Execute(ctx *ExecContext) error {
	o.executed++
	v, err := ctx.Mem.ReadUint64(ctx.Addr)
	if err != nil {
		return err
	}
	if len(ctx.RqstPayload) > 0 {
		if err := ctx.Mem.WriteUint64(ctx.Addr, v+ctx.RqstPayload[0]); err != nil {
			return err
		}
	}
	if len(ctx.RspPayload) > 0 {
		ctx.RspPayload[0] = v
	}
	return nil
}

func validDesc() Descriptor {
	return Descriptor{
		OpName:  "test_fetch_add",
		Rqst:    hmccmd.CMC85,
		Cmd:     85,
		RqstLen: 2,
		RspLen:  2,
		RspCmd:  hmccmd.RdRS,
	}
}

func TestDescriptorValidate(t *testing.T) {
	if err := validDesc().Validate(); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Descriptor)
		want   error
	}{
		{"empty name", func(d *Descriptor) { d.OpName = "" }, ErrBadDescriptor},
		{"architected enum", func(d *Descriptor) { d.Rqst = hmccmd.WR64; d.Cmd = uint32(hmccmd.WR64.Code()) }, ErrNotCMCSlot},
		{"code mismatch", func(d *Descriptor) { d.Cmd = 86 }, ErrCmdMismatch},
		{"zero rqst len", func(d *Descriptor) { d.RqstLen = 0 }, ErrBadDescriptor},
		{"huge rqst len", func(d *Descriptor) { d.RqstLen = 18 }, ErrBadDescriptor},
		{"huge rsp len", func(d *Descriptor) { d.RspLen = 18 }, ErrBadDescriptor},
		{"posted with rsp cmd", func(d *Descriptor) { d.RspLen = 0 }, ErrBadDescriptor},
		{"rsp without cmd", func(d *Descriptor) { d.RspCmd = hmccmd.RspNone }, ErrBadDescriptor},
	}
	for _, tc := range cases {
		d := validDesc()
		tc.mutate(&d)
		if err := d.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestLoadAndExecute(t *testing.T) {
	table := NewTable()
	op := &testOp{desc: validDesc()}
	if err := table.Load(op); err != nil {
		t.Fatal(err)
	}
	if table.Count() != 1 {
		t.Errorf("Count() = %d", table.Count())
	}
	store := mem.New(1 << 16)
	_ = store.WriteUint64(64, 100)
	slot, ok := table.Slot(85)
	if !ok {
		t.Fatal("loaded slot is inactive")
	}
	ctx := &ExecContext{Addr: 64, RqstPayload: []uint64{5, 0}, RspPayload: make([]uint64, 2), Mem: store}
	if err := slot.Op.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if slot.Desc.OpName != "test_fetch_add" {
		t.Errorf("slot op name %q", slot.Desc.OpName)
	}
	if op.executed != 1 {
		t.Errorf("executed %d times", op.executed)
	}
	if ctx.RspPayload[0] != 100 {
		t.Errorf("rsp payload %v, want original 100", ctx.RspPayload)
	}
	if v, _ := store.ReadUint64(64); v != 105 {
		t.Errorf("memory %d, want 105", v)
	}
}

func TestInactiveCommandRejected(t *testing.T) {
	// Paper §IV-C2: a packet for a non-active CMC command is an error.
	table := NewTable()
	if _, ok := table.Slot(125); ok {
		t.Error("Slot(125) reported active")
	}
}

func TestSlotBusy(t *testing.T) {
	table := NewTable()
	if err := table.Load(&testOp{desc: validDesc()}); err != nil {
		t.Fatal(err)
	}
	if err := table.Load(&testOp{desc: validDesc()}); !errors.Is(err, ErrSlotBusy) {
		t.Errorf("double load: %v", err)
	}
}

func TestUnloadFreesSlot(t *testing.T) {
	table := NewTable()
	if err := table.Load(&testOp{desc: validDesc()}); err != nil {
		t.Fatal(err)
	}
	if err := table.Unload(85); err != nil {
		t.Fatal(err)
	}
	if table.Count() != 0 {
		t.Errorf("Count() = %d after unload", table.Count())
	}
	if err := table.Load(&testOp{desc: validDesc()}); err != nil {
		t.Errorf("reload after unload: %v", err)
	}
	if err := table.Unload(99); !errors.Is(err, ErrInactive) {
		t.Errorf("unload unbound: %v", err)
	}
}

func TestLoadAllSeventySlots(t *testing.T) {
	// Paper §I: "the ability to load up to seventy disparate operations
	// concurrently".
	table := NewTable()
	for i, r := range hmccmd.CMCSlots() {
		d := Descriptor{
			OpName:  fmt.Sprintf("op%d", i),
			Rqst:    r,
			Cmd:     uint32(r.Code()),
			RqstLen: 1,
			RspLen:  1,
			RspCmd:  hmccmd.WrRS,
		}
		if err := table.Load(&testOp{desc: d}); err != nil {
			t.Fatalf("slot %d (%v): %v", i, r, err)
		}
	}
	if table.Count() != hmccmd.NumCMCSlots {
		t.Errorf("Count() = %d, want %d", table.Count(), hmccmd.NumCMCSlots)
	}
	if got := len(table.Active()); got != hmccmd.NumCMCSlots {
		t.Errorf("Active() = %d slots", got)
	}
	// The 71st load must fail.
	d := validDesc()
	if err := table.Load(&testOp{desc: d}); err == nil {
		t.Error("71st load succeeded")
	}
}

func TestLoadNil(t *testing.T) {
	if err := NewTable().Load(nil); !errors.Is(err, ErrBadDescriptor) {
		t.Errorf("Load(nil): %v", err)
	}
}

func TestRegistryOpenUnknown(t *testing.T) {
	if _, err := Open("no-such-op-xyzzy"); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("Open(unknown): %v", err)
	}
}

func TestRegistryRegisterAndOpen(t *testing.T) {
	RegisterFactory("test_registry_op", func() Operation {
		return &testOp{desc: validDesc()}
	})
	op, err := Open("test_registry_op")
	if err != nil {
		t.Fatal(err)
	}
	if op.Str() != "test_fetch_add" {
		t.Errorf("Str() = %q", op.Str())
	}
	found := false
	for _, n := range Names() {
		if n == "test_registry_op" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() missing registered op: %v", Names())
	}
}

func TestRegisterFactoryDuplicatePanics(t *testing.T) {
	RegisterFactory("test_dup_op", func() Operation { return &testOp{desc: validDesc()} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterFactory did not panic")
		}
	}()
	RegisterFactory("test_dup_op", func() Operation { return &testOp{desc: validDesc()} })
}
