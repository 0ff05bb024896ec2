package device

import (
	"io"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/trace"
)

// TestExecuteBurstUnderTrace drives every execute-phase datapath at
// once with tracing on at every level: each vault receives a burst of
// write, read, AMO, CMC and an out-of-range posted write, so one cycle
// services all vaults through the sharded store, the AMO unit, the CMC
// table and the register file. Every responding request must answer,
// and the posted faults must latch ErrBitAccessFault.
func TestExecuteBurstUnderTrace(t *testing.T) {
	cfg := config.FourLink4GB()
	d, err := New(0, cfg, trace.NewJSONL(io.Discard, trace.LevelAll))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CMC().Load(testLockOp{}); err != nil {
		t.Fatal(err)
	}

	block := uint64(cfg.MaxBlockSize)
	want := 0
	for burst := 0; burst < 4; burst++ {
		tag := uint16(burst * 64)
		for v := 0; v < cfg.Vaults; v++ {
			base := uint64(v) * block // one address per vault
			rqsts := []*packet.Rqst{
				{Cmd: hmccmd.WR16, ADRS: base, TAG: tag, Payload: []uint64{uint64(v), uint64(burst)}},
				{Cmd: hmccmd.RD16, ADRS: base, TAG: tag + 1},
				{Cmd: hmccmd.ADD16, ADRS: base, TAG: tag + 2, Payload: []uint64{1, 1}},
				{Cmd: hmccmd.CMC125, ADRS: base, TAG: tag + 3, Payload: []uint64{uint64(v) + 1, 0}},
				// Posted write to an out-of-range address: latches
				// ErrBitAccessFault in the register file.
				{Cmd: hmccmd.PWR16, ADRS: cfg.CapacityBytes() + base, TAG: tag + 4, Payload: []uint64{1, 2}},
			}
			for i, r := range rqsts {
				if err := d.Send((v+i)%cfg.Links, r); err != nil {
					t.Fatalf("vault %d rqst %d: %v", v, i, err)
				}
			}
			want += 4 // the posted write never responds
			tag += 8
		}
		got := 0
		for c := 0; c < 64 && got < want; c++ {
			d.Clock()
			for l := 0; l < cfg.Links; l++ {
				for {
					if _, ok := d.Recv(l); !ok {
						break
					}
					got++
				}
			}
		}
		if got != want {
			t.Fatalf("burst %d: received %d responses, want %d", burst, got, want)
		}
		want = 0
	}

	errReg, err := d.Regs().Read(RegERR)
	if err != nil {
		t.Fatal(err)
	}
	if errReg&ErrBitAccessFault == 0 {
		t.Fatalf("ERR = %#x, want ErrBitAccessFault latched by posted faults", errReg)
	}
}
