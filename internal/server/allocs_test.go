package server

import (
	"net"
	"testing"

	_ "repro/cmcops"
	"repro/internal/hmccmd"
)

// TestSteadyStateAllocs is the allocation regression gate for the
// server hot path. AllocsPerRun counts mallocs process-wide, so the
// numbers cover the whole round trip — client encode, both readers,
// execution under the stripe lock, response encode, the writer —
// across every goroutine involved.
// The pins are deliberately loose (pool misses and map growth are
// legitimate noise) but they fail hard if a per-op allocation sneaks
// back into the path this package spent its budget removing.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	srv := New(Config{})
	defer srv.Close()

	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		t.Run(proto, func(t *testing.T) {
			here, there := net.Pipe()
			srv.ServeConn(there)
			cl := NewClient(here)
			defer cl.Close()
			if err := cl.Hello(proto); err != nil {
				t.Fatal(err)
			}
			sess, err := cl.Init("4link-4gb")
			if err != nil {
				t.Fatal(err)
			}

			// Warm every pool before counting.
			for i := 0; i < 64; i++ {
				if _, err := cl.Clock(sess); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(200, func() {
				if _, err := cl.Clock(sess); err != nil {
					t.Fatal(err)
				}
			}); avg > 2 {
				t.Errorf("clock round trip: %.2f allocs/op, want ≤2", avg)
			}

			rd := hmccmd.RD64.Code()
			b := cl.NewBatch(sess)
			i := 0
			round := func() {
				b.Begin(sess)
				b.Send(i%4, rd, 0, uint64(i%64)*64, uint16(i%2047+1), nil)
				b.ClockUntilRecv(8192)
				b.Recv(i % 4)
				rsps, err := b.Do()
				if err != nil {
					t.Fatal(err)
				}
				if !rsps[0].Accepted || !rsps[2].Have {
					t.Fatalf("round failed: %+v", rsps)
				}
				i++
			}
			for j := 0; j < 64; j++ {
				round()
			}
			// The batched send→drain→recv round: three ops, one frame,
			// response payload owned by the Batch — single-digit allocs
			// even on the JSON path, and near zero on binary.
			if avg := testing.AllocsPerRun(200, round); avg > 6 {
				t.Errorf("batched send/recv round: %.2f allocs/op, want ≤6", avg)
			}
		})
	}
}
