package hmcsim

import (
	"testing"

	"repro/internal/hmccmd"
)

// TestCMCLockStateAcrossVaults: 32 distinct locks, one per vault, all
// acquired in the same burst, each leave exactly their own lock block
// holding {locked, owner TID} — a CMC op touches only its target block.
func TestCMCLockStateAcrossVaults(t *testing.T) {
	s, err := New(FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMC("hmc_fetchadd_compiled_check"); err == nil {
		t.Fatal("unexpected registry op")
	}
	if err := s.LoadCMC("hmc_lock"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMC("hmc_unlock"); err != nil {
		t.Fatal(err)
	}
	// 32 distinct locks across 32 vaults, all in flight at once.
	done := 0
	for i := 0; i < 32; i++ {
		r, err := Build(hmccmd.CMC125, 0, uint64(i)*64, uint16(i), i%4, []uint64{uint64(i) + 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(i%4, r); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 20 && done < 32; c++ {
		s.Clock()
		for link := 0; link < 4; link++ {
			for {
				rsp, ok := s.Recv(link)
				if !ok {
					break
				}
				if rsp.Payload[0] != 1 {
					t.Fatalf("lock %d failed", rsp.TAG)
				}
				done++
			}
		}
	}
	if done != 32 {
		t.Fatalf("%d locks completed", done)
	}
	d, _ := s.Device(0)
	for i := 0; i < 32; i++ {
		blk, _ := d.Store().ReadBlock(uint64(i) * 64)
		if blk.Lo != 1 || blk.Hi != uint64(i)+1 {
			t.Errorf("lock %d state %+v", i, blk)
		}
	}
}
