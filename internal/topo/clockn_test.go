package topo

import (
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// TestTopoClockNEquivalence pins the batched driver against per-cycle
// clocking on a multi-cube chain with traffic in flight.
func TestTopoClockNEquivalence(t *testing.T) {
	a := newChain(t, 3)
	b := newChain(t, 3)
	for i := 0; i < 8; i++ {
		ra := packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 0x100, TAG: uint16(i), CUB: uint8(i % 3)}
		rb := ra
		if err := a.Send(0, &ra); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(0, &rb); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 40; c++ {
		a.Clock()
	}
	b.ClockN(40)
	if a.Cycle() != b.Cycle() {
		t.Fatalf("cycle counters diverge: %d vs %d", a.Cycle(), b.Cycle())
	}
	for {
		ra, oka := a.Recv(0)
		rb, okb := b.Recv(0)
		if oka != okb {
			t.Fatalf("response availability diverges: %v vs %v", oka, okb)
		}
		if !oka {
			break
		}
		if ra.TAG != rb.TAG || ra.CUB != rb.CUB {
			t.Fatalf("response diverges: tag %d/%d cub %d/%d", ra.TAG, rb.TAG, ra.CUB, rb.CUB)
		}
		packet.PutRsp(ra)
		packet.PutRsp(rb)
	}
}

// TestTopoClockNSingleFastPath pins the single-cube fast path: ClockN
// must advance the clock and the device identically to n Clock calls.
func TestTopoClockNSingleFastPath(t *testing.T) {
	tp, err := New(KindSingle, 1, config.TwoGBDev())
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, TAG: 9}); err != nil {
		t.Fatal(err)
	}
	tp.ClockN(10)
	if tp.Cycle() != 10 {
		t.Fatalf("Cycle = %d, want 10", tp.Cycle())
	}
	if got := tp.Devices()[0].Stats().Cycles; got != 10 {
		t.Fatalf("device cycles = %d, want 10", got)
	}
	if rsp, ok := tp.Recv(0); !ok {
		t.Fatal("no response after ClockN(10)")
	} else {
		packet.PutRsp(rsp)
	}
}

// TestTopoRecvBackingReuse pins the Recv head-index fix: draining a
// forwarded-response queue must rewind onto the same backing array (no
// re-slice leak), nil out consumed packet references, and keep capacity
// bounded across many forward/drain rounds.
func TestTopoRecvBackingReuse(t *testing.T) {
	tp := newChain(t, 2)
	var capAfterWarm int
	for round := 0; round < 50; round++ {
		// Two remote reads per round so the queue holds >1 entry.
		for i := 0; i < 2; i++ {
			r := packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 0x40, TAG: uint16(2*round + i), CUB: 1}
			if err := tp.Send(0, &r); err != nil {
				t.Fatal(err)
			}
		}
		// Clock until both forwarded responses are queued and deliverable.
		got := 0
		for c := 0; c < 40 && got < 2; c++ {
			tp.Clock()
			q, h := tp.pendingRsp[0], tp.rspHead[0]
			if len(q)-h < 2 || q[h].deliverAt > tp.cycle {
				continue
			}
			// Pop the first entry only: the consumed slot must drop its
			// packet reference while the second entry is still pending.
			rsp, ok := tp.Recv(0)
			if !ok {
				t.Fatalf("round %d: head entry not deliverable", round)
			}
			packet.PutRsp(rsp)
			got++
			if tp.rspHead[0] != 1 {
				t.Fatalf("round %d: rspHead = %d, want 1", round, tp.rspHead[0])
			}
			if tp.pendingRsp[0][0].rsp != nil {
				t.Fatalf("round %d: consumed head still references its packet", round)
			}
			// Drain the rest; the queue must rewind to len 0, head 0.
			for {
				rsp, ok := tp.Recv(0)
				if !ok {
					break
				}
				packet.PutRsp(rsp)
				got++
			}
		}
		if got != 2 {
			t.Fatalf("round %d: drained %d responses, want 2", round, got)
		}
		if len(tp.pendingRsp[0]) != 0 || tp.rspHead[0] != 0 {
			t.Fatalf("round %d: queue not rewound: len=%d head=%d", round, len(tp.pendingRsp[0]), tp.rspHead[0])
		}
		if round == 4 {
			capAfterWarm = cap(tp.pendingRsp[0])
		}
	}
	if c := cap(tp.pendingRsp[0]); capAfterWarm == 0 || c != capAfterWarm {
		t.Errorf("backing array not reused: cap %d after warmup, %d after 50 rounds", capAfterWarm, c)
	}
}
