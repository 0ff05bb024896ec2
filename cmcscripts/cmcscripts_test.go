package cmcscripts

import (
	"testing"

	"repro/cmcops"
	"repro/internal/cmc"
	"repro/internal/mem"
)

func TestNamesAndSources(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("only %d shipped scripts: %v", len(names), names)
	}
	for _, want := range []string{"hmc_lock", "hmc_trylock", "hmc_unlock", "hmc_fetchadd", "hmc_fetchclear"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %s: %v", want, names)
		}
		if _, err := Source(want); err != nil {
			t.Errorf("Source(%s): %v", want, err)
		}
	}
	if _, err := Source("nonexistent"); err == nil {
		t.Error("Source(nonexistent) succeeded")
	}
	if _, err := Load("nonexistent"); err == nil {
		t.Error("Load(nonexistent) succeeded")
	}
}

func TestLoadAllParsesAndValidates(t *testing.T) {
	progs, err := LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != len(Names()) {
		t.Fatalf("loaded %d of %d", len(progs), len(Names()))
	}
	table := cmc.NewTable()
	for _, p := range progs {
		if err := p.Register().Validate(); err != nil {
			t.Errorf("%s: %v", p.Str(), err)
		}
		if err := table.Load(p); err != nil {
			t.Errorf("%s: %v", p.Str(), err)
		}
	}
}

// TestScriptMutexMatchesCompiledOps: the shipped script mutex trio is
// semantically identical to the compiled cmcops implementations — same
// Table V metadata, same behaviour on a contended sequence.
func TestScriptMutexMatchesCompiledOps(t *testing.T) {
	pairs := []struct {
		name     string
		compiled cmc.Operation
	}{
		{"hmc_lock", cmcops.MutexOps()[0]},
		{"hmc_trylock", cmcops.MutexOps()[1]},
		{"hmc_unlock", cmcops.MutexOps()[2]},
	}
	sStore := mem.New(1 << 12)
	gStore := mem.New(1 << 12)
	run := func(op cmc.Operation, store *mem.Store, tid uint64) uint64 {
		ctx := &cmc.ExecContext{
			Addr:        0x40,
			RqstPayload: []uint64{tid, 0},
			RspPayload:  make([]uint64, 2),
			Mem:         store,
		}
		if err := op.Execute(ctx); err != nil {
			t.Fatalf("%s: %v", op.Str(), err)
		}
		return ctx.RspPayload[0]
	}
	scripts := map[string]cmc.Operation{}
	for _, p := range pairs {
		prog, err := Load(p.name)
		if err != nil {
			t.Fatal(err)
		}
		sd, gd := prog.Register(), p.compiled.Register()
		if sd.Cmd != gd.Cmd || sd.RqstLen != gd.RqstLen || sd.RspLen != gd.RspLen || sd.RspCmd != gd.RspCmd {
			t.Errorf("%s: script descriptor %+v != compiled %+v", p.name, sd, gd)
		}
		scripts[p.name] = prog
	}
	// A contended sequence: lock(1), lock(2), trylock(2), unlock(2),
	// unlock(1), trylock(2).
	seq := []struct {
		op  string
		tid uint64
	}{
		{"hmc_lock", 1}, {"hmc_lock", 2}, {"hmc_trylock", 2},
		{"hmc_unlock", 2}, {"hmc_unlock", 1}, {"hmc_trylock", 2},
	}
	for i, step := range seq {
		var compiled cmc.Operation
		for _, p := range pairs {
			if p.name == step.op {
				compiled = p.compiled
			}
		}
		sv := run(scripts[step.op], sStore, step.tid)
		gv := run(compiled, gStore, step.tid)
		if sv != gv {
			t.Fatalf("step %d (%s tid=%d): script %d != compiled %d", i, step.op, step.tid, sv, gv)
		}
		sBlk, _ := sStore.ReadBlock(0x40)
		gBlk, _ := gStore.ReadBlock(0x40)
		if sBlk != gBlk {
			t.Fatalf("step %d: state diverged %+v vs %+v", i, sBlk, gBlk)
		}
	}
}

func TestFetchClearSemantics(t *testing.T) {
	prog, err := Load("hmc_fetchclear")
	if err != nil {
		t.Fatal(err)
	}
	store := mem.New(1 << 12)
	_ = store.WriteBlock(0x20, mem.Block{Lo: 111, Hi: 222})
	ctx := &cmc.ExecContext{Addr: 0x20, RspPayload: make([]uint64, 2), Mem: store}
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.RspPayload[0] != 111 || ctx.RspPayload[1] != 222 {
		t.Errorf("returned %v", ctx.RspPayload)
	}
	blk, _ := store.ReadBlock(0x20)
	if blk.Lo != 0 || blk.Hi != 0 {
		t.Errorf("block not cleared: %+v", blk)
	}
}

func TestCAS64Semantics(t *testing.T) {
	prog, err := Load("hmc_cas64")
	if err != nil {
		t.Fatal(err)
	}
	store := mem.New(1 << 12)
	_ = store.WriteUint64(0x40, 7)
	run := func(compare, swap uint64) uint64 {
		ctx := &cmc.ExecContext{Addr: 0x40, RqstPayload: []uint64{compare, swap}, RspPayload: make([]uint64, 2), Mem: store}
		if err := prog.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.RspPayload[0]
	}
	if old := run(9, 100); old != 7 {
		t.Errorf("mismatch returned %d", old)
	}
	if v, _ := store.ReadUint64(0x40); v != 7 {
		t.Errorf("mismatch swapped: %d", v)
	}
	if old := run(7, 100); old != 7 {
		t.Errorf("match returned %d", old)
	}
	if v, _ := store.ReadUint64(0x40); v != 100 {
		t.Errorf("match did not swap: %d", v)
	}
}

func TestMin64Semantics(t *testing.T) {
	prog, err := Load("hmc_min64")
	if err != nil {
		t.Fatal(err)
	}
	store := mem.New(1 << 12)
	_ = store.WriteUint64(0, 50)
	run := func(cand uint64) uint64 {
		ctx := &cmc.ExecContext{Addr: 0, RqstPayload: []uint64{cand, 0}, RspPayload: make([]uint64, 2), Mem: store}
		if err := prog.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.RspPayload[0]
	}
	if old := run(80); old != 50 {
		t.Errorf("returned %d", old)
	}
	if v, _ := store.ReadUint64(0); v != 50 {
		t.Errorf("larger candidate replaced min: %d", v)
	}
	if old := run(20); old != 50 {
		t.Errorf("returned %d", old)
	}
	if v, _ := store.ReadUint64(0); v != 20 {
		t.Errorf("smaller candidate not stored: %d", v)
	}
}

func TestHistoSemantics(t *testing.T) {
	prog, err := Load("hmc_histo")
	if err != nil {
		t.Fatal(err)
	}
	store := mem.New(1 << 12)
	run := func(bucket uint64) uint64 {
		ctx := &cmc.ExecContext{Addr: 0x20, RqstPayload: []uint64{bucket, 0}, RspPayload: make([]uint64, 2), Mem: store}
		if err := prog.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.RspPayload[0]
	}
	if got := run(0); got != 1 {
		t.Errorf("low bucket -> %d", got)
	}
	if got := run(0); got != 2 {
		t.Errorf("low bucket -> %d", got)
	}
	if got := run(1); got != 1 {
		t.Errorf("high bucket -> %d", got)
	}
	blk, _ := store.ReadBlock(0x20)
	if blk.Lo != 2 || blk.Hi != 1 {
		t.Errorf("histogram state %+v", blk)
	}
}
