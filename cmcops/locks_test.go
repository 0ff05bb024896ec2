package cmcops

import (
	"testing"
	"testing/quick"

	"repro/internal/cmc"
	"repro/internal/mem"
)

// execOut runs an op and returns both response payload words.
func execOut(t *testing.T, op cmc.Operation, store *mem.Store, addr, tid uint64) [2]uint64 {
	t.Helper()
	d := op.Register()
	ctx := &cmc.ExecContext{
		Addr:        addr,
		RqstPayload: []uint64{tid, 0},
		RspPayload:  make([]uint64, 2*(int(d.RspLen)-1)),
		Mem:         store,
	}
	if err := op.Execute(ctx); err != nil {
		t.Fatalf("%s: %v", op.Str(), err)
	}
	return [2]uint64{ctx.RspPayload[0], ctx.RspPayload[1]}
}

func TestTicketDispenseAndServe(t *testing.T) {
	store := mem.New(1 << 12)
	const addr = 0x40

	// Three takers receive tickets 0, 1, 2; serving starts at 0.
	for want := uint64(0); want < 3; want++ {
		out := execOut(t, ticketTake, store, addr, 0)
		if out[0] != want || out[1] != 0 {
			t.Fatalf("take %d: got ticket %d serving %d", want, out[0], out[1])
		}
	}
	// Ticket 0's holder releases: serving advances to 1, then 2.
	if out := execOut(t, ticketNext, store, addr, 0); out[0] != 1 {
		t.Fatalf("first release: serving %d", out[0])
	}
	if out := execOut(t, ticketNext, store, addr, 0); out[0] != 2 {
		t.Fatalf("second release: serving %d", out[0])
	}
	blk, _ := store.ReadBlock(addr)
	if blk.Lo != 3 || blk.Hi != 2 {
		t.Fatalf("state %+v, want next=3 serving=2", blk)
	}
}

func TestTicketFairnessProperty(t *testing.T) {
	// Tickets are dispensed strictly monotonically: FIFO fairness is
	// structural, unlike the spin mutex.
	store := mem.New(1 << 12)
	prev := ^uint64(0)
	for i := 0; i < 50; i++ {
		out := execOut(t, ticketTake, store, 0, 0)
		if prev != ^uint64(0) && out[0] != prev+1 {
			t.Fatalf("ticket %d after %d", out[0], prev)
		}
		prev = out[0]
	}
}

func TestRWLockReadersShare(t *testing.T) {
	store := mem.New(1 << 12)
	const addr = 0x80
	// Three concurrent readers succeed.
	for i := 0; i < 3; i++ {
		if out := execOut(t, rdLock, store, addr, 0); out[0] != RetSuccess {
			t.Fatalf("reader %d refused", i)
		}
	}
	blk, _ := store.ReadBlock(addr)
	if blk.Lo != 3 {
		t.Fatalf("reader count %d", blk.Lo)
	}
	// A writer is excluded while readers hold it.
	if out := execOut(t, wrLock, store, addr, 7); out[0] != RetFailure {
		t.Fatal("writer acquired over readers")
	}
	// Readers drain; the writer then succeeds.
	for i := 0; i < 3; i++ {
		if out := execOut(t, rdUnlock, store, addr, 0); out[0] != RetSuccess {
			t.Fatalf("rdunlock %d failed", i)
		}
	}
	if out := execOut(t, wrLock, store, addr, 7); out[0] != RetSuccess {
		t.Fatal("writer refused on free lock")
	}
	// Readers are excluded while the writer holds it.
	if out := execOut(t, rdLock, store, addr, 0); out[0] != RetFailure {
		t.Fatal("reader acquired over writer")
	}
	// Only the owner releases.
	if out := execOut(t, wrUnlock, store, addr, 9); out[0] != RetFailure {
		t.Fatal("non-owner wrunlock succeeded")
	}
	if out := execOut(t, wrUnlock, store, addr, 7); out[0] != RetSuccess {
		t.Fatal("owner wrunlock failed")
	}
}

func TestRWLockEdgeCases(t *testing.T) {
	store := mem.New(1 << 12)
	// rdunlock with no readers fails.
	if out := execOut(t, rdUnlock, store, 0, 0); out[0] != RetFailure {
		t.Error("rdunlock on free lock succeeded")
	}
	// wrlock with TID 0 is rejected (0 encodes "no writer").
	if out := execOut(t, wrLock, store, 0, 0); out[0] != RetFailure {
		t.Error("wrlock with TID 0 succeeded")
	}
}

// TestRWLockInvariantQuick drives random op sequences and checks the
// exclusion invariant: a writer never coexists with readers, and the
// reader count matches the model.
func TestRWLockInvariantQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		store := mem.New(1 << 12)
		readers := uint64(0)
		writer := uint64(0)
		for i, op := range ops {
			tid := uint64(i%5) + 1
			switch op % 4 {
			case 0: // rdlock
				out := execOutQuick(rdLock, store, tid)
				if (writer == 0) != (out == RetSuccess) {
					return false
				}
				if out == RetSuccess {
					readers++
				}
			case 1: // rdunlock
				out := execOutQuick(rdUnlock, store, tid)
				if (readers > 0) != (out == RetSuccess) {
					return false
				}
				if out == RetSuccess {
					readers--
				}
			case 2: // wrlock
				out := execOutQuick(wrLock, store, tid)
				want := writer == 0 && readers == 0
				if want != (out == RetSuccess) {
					return false
				}
				if out == RetSuccess {
					writer = tid
				}
			case 3: // wrunlock
				out := execOutQuick(wrUnlock, store, tid)
				want := writer == tid && writer != 0
				if want != (out == RetSuccess) {
					return false
				}
				if out == RetSuccess {
					writer = 0
				}
			}
			// The invariant itself.
			blk, err := store.ReadBlock(0)
			if err != nil {
				return false
			}
			if blk.Lo != readers || blk.Hi != writer {
				return false
			}
			if blk.Lo > 0 && blk.Hi > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func execOutQuick(op cmc.Operation, store *mem.Store, tid uint64) uint64 {
	d := op.Register()
	ctx := &cmc.ExecContext{
		Addr:        0,
		RqstPayload: []uint64{tid, 0},
		RspPayload:  make([]uint64, 2*(int(d.RspLen)-1)),
		Mem:         store,
	}
	if err := op.Execute(ctx); err != nil {
		return ^uint64(0)
	}
	return ctx.RspPayload[0]
}

func TestLockBundles(t *testing.T) {
	if len(TicketOps()) != 2 || len(RWLockOps()) != 4 {
		t.Fatal("bundle sizes wrong")
	}
	table := cmc.NewTable()
	all := append(append(MutexOps(), TicketOps()...), RWLockOps()...)
	for _, op := range all {
		if err := table.Load(op); err != nil {
			t.Fatalf("%s: %v", op.Str(), err)
		}
		if err := op.Register().Validate(); err != nil {
			t.Fatalf("%s: %v", op.Str(), err)
		}
	}
	if table.Count() != 9 {
		t.Errorf("loaded %d ops", table.Count())
	}
}

func TestLockOpStrNames(t *testing.T) {
	for _, tc := range []struct {
		op   cmc.Operation
		want string
	}{
		{ticketTake, "hmc_ticket"},
		{ticketNext, "hmc_ticket_next"},
		{rdLock, "hmc_rdlock"},
		{rdUnlock, "hmc_rdunlock"},
		{wrLock, "hmc_wrlock"},
		{wrUnlock, "hmc_wrunlock"},
	} {
		if tc.op.Str() != tc.want {
			t.Errorf("Str() = %q, want %q", tc.op.Str(), tc.want)
		}
		if op, err := cmc.Open(tc.want); err != nil || op.Str() != tc.want {
			t.Errorf("registry Open(%q): %v", tc.want, err)
		}
	}
}
