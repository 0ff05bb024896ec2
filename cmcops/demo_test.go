package cmcops

import (
	"testing"
	"testing/quick"

	"repro/internal/cmc"
	"repro/internal/hmccmd"
	"repro/internal/mem"
)

func TestPopCount16(t *testing.T) {
	store := mem.New(1 << 12)
	_ = store.WriteBlock(0x20, mem.Block{Lo: 0b1011, Hi: 0xFF})
	op := popCount16
	d := op.Register()
	if d.RspCmd != hmccmd.RspCMC || d.RspCmdCode != PopCountRspCode {
		t.Fatalf("descriptor %+v must use a custom RSP_CMC code", d)
	}
	ctx := &cmc.ExecContext{Addr: 0x20, RspPayload: make([]uint64, 2), Mem: store}
	if err := op.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.RspPayload[0] != 3+8 {
		t.Errorf("popcount = %d, want 11", ctx.RspPayload[0])
	}
}

func TestPopCount16Quick(t *testing.T) {
	store := mem.New(1 << 12)
	op := popCount16
	f := func(lo, hi uint64) bool {
		if err := store.WriteBlock(0, mem.Block{Lo: lo, Hi: hi}); err != nil {
			return false
		}
		ctx := &cmc.ExecContext{Addr: 0, RspPayload: make([]uint64, 2), Mem: store}
		if err := op.Execute(ctx); err != nil {
			return false
		}
		want := uint64(0)
		for v := lo; v != 0; v &= v - 1 {
			want++
		}
		for v := hi; v != 0; v &= v - 1 {
			want++
		}
		return ctx.RspPayload[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxSwap64(t *testing.T) {
	store := mem.New(1 << 12)
	_ = store.WriteUint64(8, 50)
	op := maxSwap64
	run := func(cand uint64) uint64 {
		ctx := &cmc.ExecContext{
			Addr:        8,
			RqstPayload: []uint64{cand, 0},
			RspPayload:  make([]uint64, 2),
			Mem:         store,
		}
		if err := op.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.RspPayload[0]
	}
	if old := run(30); old != 50 {
		t.Errorf("returned %d, want 50", old)
	}
	if v, _ := store.ReadUint64(8); v != 50 {
		t.Errorf("smaller candidate overwrote max: %d", v)
	}
	if old := run(99); old != 50 {
		t.Errorf("returned %d, want 50", old)
	}
	if v, _ := store.ReadUint64(8); v != 99 {
		t.Errorf("larger candidate not stored: %d", v)
	}
}

func TestVisitNode(t *testing.T) {
	store := mem.New(1 << 12)
	op := visitNode
	run := func(tid uint64) uint64 {
		ctx := &cmc.ExecContext{
			Addr:        0x10,
			RqstPayload: []uint64{tid, 0},
			RspPayload:  make([]uint64, 2),
			Mem:         store,
		}
		if err := op.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.RspPayload[0]
	}
	if got := run(4); got != RetSuccess {
		t.Fatalf("first visit returned %d", got)
	}
	if got := run(5); got != RetFailure {
		t.Fatalf("second visit returned %d", got)
	}
	blk, _ := store.ReadBlock(0x10)
	if blk.Lo != 1 || blk.Hi != 4 {
		t.Errorf("visit state %+v, want claimed by 4", blk)
	}
}

func TestDemoDescriptorsValid(t *testing.T) {
	for _, op := range []cmc.Operation{popCount16, maxSwap64, visitNode} {
		if err := op.Register().Validate(); err != nil {
			t.Errorf("%s: %v", op.Str(), err)
		}
	}
}

func TestAllOpsLoadIntoOneTable(t *testing.T) {
	// The paper's "creative experimentation" requirement: disparate
	// combinations of CMC operations coexist in one simulation.
	table := cmc.NewTable()
	for _, op := range []cmc.Operation{lock, tryLock, unlock, popCount16, maxSwap64, visitNode} {
		if err := table.Load(op); err != nil {
			t.Fatalf("%s: %v", op.Str(), err)
		}
	}
	if table.Count() != 6 {
		t.Errorf("Count() = %d", table.Count())
	}
}
