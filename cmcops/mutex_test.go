package cmcops

import (
	"testing"

	"repro/internal/cmc"
	"repro/internal/hmccmd"
	"repro/internal/mem"
)

func exec(t *testing.T, op cmc.Operation, store *mem.Store, addr, tid uint64) uint64 {
	t.Helper()
	d := op.Register()
	ctx := &cmc.ExecContext{
		Addr:        addr,
		Length:      uint32(d.RqstLen),
		RqstPayload: []uint64{tid, 0},
		RspPayload:  make([]uint64, 2*(int(d.RspLen)-1)),
		Mem:         store,
	}
	if err := op.Execute(ctx); err != nil {
		t.Fatalf("%s: %v", op.Str(), err)
	}
	return ctx.RspPayload[0]
}

// TestTableV verifies the mutex operations' registration metadata against
// Table V of the paper.
func TestTableV(t *testing.T) {
	rows := []struct {
		op      cmc.Operation
		name    string
		rqst    hmccmd.Rqst
		cmd     uint32
		rqstLen uint8
		rspCmd  hmccmd.Resp
		rspLen  uint8
	}{
		{lock, "hmc_lock", hmccmd.CMC125, 125, 2, hmccmd.WrRS, 2},
		{tryLock, "hmc_trylock", hmccmd.CMC126, 126, 2, hmccmd.RdRS, 2},
		{unlock, "hmc_unlock", hmccmd.CMC127, 127, 2, hmccmd.WrRS, 2},
	}
	for _, row := range rows {
		d := row.op.Register()
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		if d.OpName != row.name || row.op.Str() != row.name {
			t.Errorf("%s: op_name %q, Str %q", row.name, d.OpName, row.op.Str())
		}
		if d.Rqst != row.rqst || d.Cmd != row.cmd {
			t.Errorf("%s: rqst %v cmd %d", row.name, d.Rqst, d.Cmd)
		}
		if d.RqstLen != row.rqstLen || d.RspLen != row.rspLen {
			t.Errorf("%s: rqst_len %d rsp_len %d", row.name, d.RqstLen, d.RspLen)
		}
		if d.RspCmd != row.rspCmd {
			t.Errorf("%s: rsp_cmd %v, want %v", row.name, d.RspCmd, row.rspCmd)
		}
	}
}

func TestLockAcquireRelease(t *testing.T) {
	store := mem.New(1 << 12)
	const addr, tid = 0x40, 7

	if got := exec(t, lock, store, addr, tid); got != RetSuccess {
		t.Fatalf("first lock returned %d", got)
	}
	blk, _ := store.ReadBlock(addr)
	if blk.Lo != 1 || blk.Hi != tid {
		t.Fatalf("lock struct %+v, want Lo=1 Hi=%d (paper Figure 4 layout)", blk, tid)
	}

	// Second lock by another thread fails and leaves state untouched.
	if got := exec(t, lock, store, addr, 9); got != RetFailure {
		t.Fatalf("contended lock returned %d", got)
	}
	blk, _ = store.ReadBlock(addr)
	if blk.Lo != 1 || blk.Hi != tid {
		t.Fatalf("failed lock modified state: %+v", blk)
	}

	// Non-owner unlock fails.
	if got := exec(t, unlock, store, addr, 9); got != RetFailure {
		t.Fatalf("non-owner unlock returned %d", got)
	}
	// Owner unlock succeeds and clears only the lock word.
	if got := exec(t, unlock, store, addr, tid); got != RetSuccess {
		t.Fatalf("owner unlock returned %d", got)
	}
	blk, _ = store.ReadBlock(addr)
	if blk.Lo != 0 {
		t.Fatalf("unlock left lock word %d", blk.Lo)
	}

	// Unlocking an already-free lock fails.
	if got := exec(t, unlock, store, addr, tid); got != RetFailure {
		t.Fatalf("double unlock returned %d", got)
	}
}

func TestTryLockReturnsOwnerTID(t *testing.T) {
	store := mem.New(1 << 12)
	const addr = 0x80

	// Free lock: trylock acquires and returns the caller's TID.
	if got := exec(t, tryLock, store, addr, 5); got != 5 {
		t.Fatalf("trylock on free lock returned %d, want caller TID 5", got)
	}
	// Held lock: trylock returns the holder's TID, not the caller's.
	if got := exec(t, tryLock, store, addr, 6); got != 5 {
		t.Fatalf("trylock on held lock returned %d, want owner TID 5", got)
	}
	blk, _ := store.ReadBlock(addr)
	if blk.Hi != 5 || blk.Lo != 1 {
		t.Fatalf("trylock mutated held lock: %+v", blk)
	}
}

func TestLockUnalignedAddressUsesBlockBase(t *testing.T) {
	store := mem.New(1 << 12)
	// Target inside a block: the op must operate on the enclosing 16-byte
	// block (DRAM minimum granularity).
	if got := exec(t, lock, store, 0x48, 3); got != RetSuccess {
		t.Fatalf("lock returned %d", got)
	}
	blk, _ := store.ReadBlock(0x40)
	if blk.Lo != 1 || blk.Hi != 3 {
		t.Fatalf("block base not used: %+v", blk)
	}
}

func TestMutualExclusionInvariant(t *testing.T) {
	// Serialized adversarial interleaving: at most one thread ever holds
	// the lock, and only the holder's unlock releases it.
	store := mem.New(1 << 12)
	const addr = 0
	holder := uint64(0) // 0 = free
	for step, tid := range []uint64{1, 2, 3, 2, 1, 4, 4, 2, 3, 1} {
		got := exec(t, lock, store, addr, tid)
		if holder == 0 {
			if got != RetSuccess {
				t.Fatalf("step %d: free lock refused tid %d", step, tid)
			}
			holder = tid
		} else if got != RetFailure {
			t.Fatalf("step %d: tid %d acquired lock held by %d", step, tid, holder)
		}
		// Random-ish release attempts by tid; only the holder succeeds.
		rel := exec(t, unlock, store, addr, tid)
		if tid == holder {
			if rel != RetSuccess {
				t.Fatalf("step %d: holder %d failed to unlock", step, tid)
			}
			holder = 0
		} else if rel != RetFailure {
			t.Fatalf("step %d: tid %d released lock held by %d", step, tid, holder)
		}
	}
}

func TestMutexOpsBundle(t *testing.T) {
	ops := MutexOps()
	if len(ops) != 3 {
		t.Fatalf("MutexOps() returned %d ops", len(ops))
	}
	codes := map[uint32]bool{}
	for _, op := range ops {
		codes[op.Register().Cmd] = true
	}
	for _, c := range []uint32{125, 126, 127} {
		if !codes[c] {
			t.Errorf("bundle missing command code %d", c)
		}
	}
}

func TestFactoriesRegistered(t *testing.T) {
	for _, name := range []string{"hmc_lock", "hmc_trylock", "hmc_unlock", "hmc_popcount16", "hmc_maxswap64", "hmc_visit"} {
		op, err := cmc.Open(name)
		if err != nil {
			t.Errorf("Open(%q): %v", name, err)
			continue
		}
		if op.Str() != name {
			t.Errorf("Open(%q).Str() = %q", name, op.Str())
		}
	}
}
