package cmcops

import (
	"errors"
	"testing"

	"repro/internal/cmc"
	"repro/internal/hmccmd"
	"repro/internal/mem"
)

func fetchAddTemplate() Template {
	return Template{
		Name:    "tmpl_fetchadd",
		Rqst:    hmccmd.CMC85,
		RqstLen: 2,
		RspLen:  2,
		RspCmd:  hmccmd.RdRS,
		Fn: func(ctx *cmc.ExecContext) error {
			addr := ctx.Addr &^ 0x7
			v, err := ctx.Mem.ReadUint64(addr)
			if err != nil {
				return err
			}
			ctx.RspPayload[0] = v
			return ctx.Mem.WriteUint64(addr, v+ctx.RqstPayload[0])
		},
	}
}

func TestTemplateDescriptorConsistentByConstruction(t *testing.T) {
	d := fetchAddTemplate().Register()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table III's "cmd must match rqst" rule cannot be violated.
	if d.Cmd != uint32(hmccmd.CMC85.Code()) {
		t.Errorf("cmd = %d", d.Cmd)
	}
	if d.OpName != "tmpl_fetchadd" || fetchAddTemplate().Str() != "tmpl_fetchadd" {
		t.Error("name plumbing broken")
	}
}

func TestTemplateLoadsAndExecutes(t *testing.T) {
	table := cmc.NewTable()
	op := fetchAddTemplate()
	if err := table.Load(op); err != nil {
		t.Fatal(err)
	}
	store := mem.New(1 << 12)
	_ = store.WriteUint64(0x20, 40)
	slot, ok := table.Slot(op.Rqst.Code())
	if !ok {
		t.Fatal("loaded template's slot is inactive")
	}
	ctx := &cmc.ExecContext{Addr: 0x20, RqstPayload: []uint64{2, 0}, RspPayload: make([]uint64, 2), Mem: store}
	if err := slot.Op.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if slot.Op.Str() != "tmpl_fetchadd" {
		t.Errorf("slot name %q", slot.Op.Str())
	}
	if ctx.RspPayload[0] != 40 {
		t.Errorf("returned %d", ctx.RspPayload[0])
	}
	if v, _ := store.ReadUint64(0x20); v != 42 {
		t.Errorf("memory %d", v)
	}
}

func TestTemplateErrorPropagates(t *testing.T) {
	op := Template{
		Name: "tmpl_fail", Rqst: hmccmd.CMC86, RqstLen: 1, RspLen: 1, RspCmd: hmccmd.WrRS,
		Fn: func(*cmc.ExecContext) error { return errors.New("boom") },
	}
	table := cmc.NewTable()
	if err := table.Load(op); err != nil {
		t.Fatal(err)
	}
	slot, ok := table.Slot(op.Rqst.Code())
	if !ok {
		t.Fatal("loaded template's slot is inactive")
	}
	if err := slot.Op.Execute(&cmc.ExecContext{Mem: mem.New(64)}); err == nil {
		t.Error("error swallowed")
	}
}

func TestTemplateRejectsArchitectedSlot(t *testing.T) {
	op := Template{Name: "bad", Rqst: hmccmd.WR64, RqstLen: 1, RspLen: 1, RspCmd: hmccmd.WrRS,
		Fn: func(*cmc.ExecContext) error { return nil }}
	if err := cmc.NewTable().Load(op); !errors.Is(err, cmc.ErrNotCMCSlot) {
		t.Errorf("Load: %v", err)
	}
}
