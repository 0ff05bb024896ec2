package sim

import (
	"io"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/trace"
)

// TestTracedCMCLockUnlock exercises the simulator layer with full
// tracing and a stateful CMC workload: 32 locks spread across the
// vaults, locked then unlocked, every response checked, and every lock
// block released at the end.
func TestTracedCMCLockUnlock(t *testing.T) {
	s, err := New(config.FourLink4GB(),
		WithTracer(trace.NewJSONL(io.Discard, trace.LevelAll)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hmc_lock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			t.Fatal(err)
		}
	}
	const n = 32
	for round, cmd := range []hmccmd.Rqst{hmccmd.CMC125, hmccmd.CMC127} {
		for i := 0; i < n; i++ {
			r, err := BuildCMC(cmd, 0, uint64(i)*64, uint16(round*n+i), i%4, []uint64{uint64(i) + 1, 0})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(i%4, r); err != nil {
				t.Fatal(err)
			}
		}
		done := 0
		for c := 0; c < 40 && done < n; c++ {
			s.Clock()
			for link := 0; link < 4; link++ {
				for {
					rsp, ok := s.Recv(link)
					if !ok {
						break
					}
					if rsp.Cmd == hmccmd.RspError {
						t.Fatalf("round %d tag %d: ERRSTAT %#x", round, rsp.TAG, rsp.ERRSTAT)
					}
					if rsp.Payload[0] != 1 {
						t.Fatalf("round %d tag %d: op failed", round, rsp.TAG)
					}
					done++
				}
			}
		}
		if done != n {
			t.Fatalf("round %d: %d/%d ops completed", round, done, n)
		}
	}
	// Every lock must have been released by the unlock round.
	d, err := s.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		blk, err := d.Store().ReadBlock(uint64(i) * 64)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Lo != 0 {
			t.Errorf("lock %d still held by TID %d", i, blk.Hi)
		}
	}
}
