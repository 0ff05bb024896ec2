package device

import (
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// drain pumps the device until n responses have been collected.
func drain(t *testing.T, d *Device, n int) uint64 {
	t.Helper()
	got := 0
	for c := 0; c < 1000 && got < n; c++ {
		d.Clock()
		for link := 0; link < d.Cfg.Links; link++ {
			for {
				if _, ok := d.Recv(link); !ok {
					break
				}
				got++
			}
		}
	}
	if got != n {
		t.Fatalf("collected %d of %d responses", got, n)
	}
	return d.Cycle()
}

// sameBankRow returns an address in vault 0 / bank 0 with the given row.
func sameBankRow(cfg config.Config, row uint64) uint64 {
	// Layout: row | bank | vault | offset.
	return row << uint(cfg.BankBits()+cfg.VaultBits()+cfg.OffsetBits())
}

func TestOpenRowHitsAndMisses(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.BankLatencyCycles = 1
	cfg.RowMissPenaltyCycles = 4
	d := newDev(t, cfg)

	// Four requests to the same row, then one to a different row: the
	// first access opens the row (miss), the next three hit, the last
	// misses again.
	for i := 0; i < 4; i++ {
		r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: sameBankRow(cfg, 5), TAG: uint16(i)}
		if err := d.Send(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: sameBankRow(cfg, 9), TAG: 4}); err != nil {
		t.Fatal(err)
	}
	drain(t, d, 5)
	st := d.Stats()
	if st.RowHits != 3 || st.RowMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 3/2", st.RowHits, st.RowMisses)
	}
}

func TestRowMissPenaltySlowsAlternation(t *testing.T) {
	run := func(penalty int, alternate bool) uint64 {
		cfg := config.FourLink4GB()
		cfg.BankLatencyCycles = 1
		cfg.RowMissPenaltyCycles = penalty
		d, err := New(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			row := uint64(1)
			if alternate && i%2 == 1 {
				row = 2
			}
			r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: sameBankRow(cfg, row), TAG: uint16(i)}
			if err := d.Send(0, r); err != nil {
				t.Fatal(err)
			}
		}
		return drain(t, d, 16)
	}
	sameRow := run(6, false)
	thrash := run(6, true)
	if thrash <= sameRow {
		t.Errorf("row thrashing (%d cycles) not slower than same-row stream (%d)", thrash, sameRow)
	}
	// Without the page model the two patterns cost the same.
	flatSame := run(0, false)
	flatAlt := run(0, true)
	if flatSame != flatAlt {
		t.Errorf("page model disabled but patterns differ: %d vs %d", flatSame, flatAlt)
	}
}

func TestRowModelRequiresBankTiming(t *testing.T) {
	// RowMissPenaltyCycles without bank timing is inert by design.
	cfg := config.FourLink4GB()
	cfg.BankLatencyCycles = 0
	cfg.RowMissPenaltyCycles = 10
	d := newDev(t, cfg)
	for i := 0; i < 4; i++ {
		r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: sameBankRow(cfg, uint64(i)), TAG: uint16(i)}
		if err := d.Send(0, r); err != nil {
			t.Fatal(err)
		}
	}
	end := drain(t, d, 4)
	if end != 3 {
		t.Errorf("timing-free run took %d cycles, want 3", end)
	}
	if d.Stats().RowMisses != 0 {
		t.Error("row model active without bank timing")
	}
}
