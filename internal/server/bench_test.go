package server

import (
	"net"
	"testing"

	_ "repro/cmcops"
	"repro/internal/hmccmd"
)

// BenchmarkServerOpRoundTrip measures one full wire round trip — encode,
// pipe, decode, stripe lock, simulator clock, response encode, writer
// hand-off, pipe, decode — against a warm session. This is the
// per-operation floor of the co-simulation path.
func BenchmarkServerOpRoundTrip(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	defer cl.Close()
	sess, err := cl.Init("4link-4gb")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cl.Clock(sess); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Clock(sess); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSendRecvRoundTrip measures a full request round trip:
// send a read, run the clock until the response surfaces, receive it.
func BenchmarkServerSendRecvRoundTrip(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	defer cl.Close()
	sess, err := cl.Init("4link-4gb")
	if err != nil {
		b.Fatal(err)
	}
	rd := hmccmd.RD64.Code()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := cl.Send(sess, i%4, rd, 0, uint64(i%64)*64, uint16(i%2047+1), nil)
		if err != nil || !acc {
			b.Fatalf("send: accepted=%v err=%v", acc, err)
		}
		if _, avail, err := cl.ClockUntilRecv(sess, 8192); err != nil || !avail {
			b.Fatalf("clock_until_recv: avail=%v err=%v", avail, err)
		}
		rsp, err := cl.Recv(sess, i%4)
		if err != nil || !rsp.Have {
			b.Fatalf("recv: have=%v err=%v", rsp.Have, err)
		}
	}
}

// BenchmarkServerBatchedSendRecv measures the same send→drain→recv
// round as BenchmarkServerSendRecvRoundTrip issued as one batch frame,
// in each wire encoding — one round trip instead of three.
func BenchmarkServerBatchedSendRecv(b *testing.B) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		b.Run(proto, func(b *testing.B) {
			srv := New(Config{})
			defer srv.Close()
			here, there := net.Pipe()
			srv.ServeConn(there)
			cl := NewClient(here)
			defer cl.Close()
			if err := cl.Hello(proto); err != nil {
				b.Fatal(err)
			}
			sess, err := cl.Init("4link-4gb")
			if err != nil {
				b.Fatal(err)
			}
			rd := hmccmd.RD64.Code()
			bt := cl.NewBatch(sess)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt.Begin(sess)
				bt.Send(i%4, rd, 0, uint64(i%64)*64, uint16(i%2047+1), nil)
				bt.ClockUntilRecv(8192)
				bt.Recv(i % 4)
				rsps, err := bt.Do()
				if err != nil {
					b.Fatal(err)
				}
				if !rsps[0].Accepted || !rsps[2].Have {
					b.Fatalf("round %d failed: %+v", i, rsps)
				}
			}
		})
	}
}

// BenchmarkServerSessionChurn measures one tenant's whole session
// against a warm server: init, one WR64 round and one RD64 round (send,
// clock_until_recv, recv), then close. pooled recycles simulators
// through the server's pool (Config{}); unpooled builds every tenant a
// fresh one (Config{PoolCap: -1}). close Resets and Trims a pooled
// simulator, so its next tenant still rebuilds the vault, banks and
// free lists it touches: churn allocates either way, and the pool saves
// the simulator build.
func BenchmarkServerSessionChurn(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"pooled", Config{}}, {"unpooled", Config{PoolCap: -1}}} {
		b.Run(bc.name, func(b *testing.B) {
			srv := New(bc.cfg)
			defer srv.Close()
			here, there := net.Pipe()
			srv.ServeConn(there)
			cl := NewClient(here)
			defer cl.Close()
			rounds := []struct {
				cmd     uint8
				payload []uint64
			}{{hmccmd.WR64.Code(), make([]uint64, 8)}, {hmccmd.RD64.Code(), nil}}
			tenant := func() {
				sess, err := cl.Init("4link-4gb")
				if err != nil {
					b.Fatal(err)
				}
				for i, r := range rounds {
					acc, err := cl.Send(sess, 0, r.cmd, 0, 0x40, uint16(i+1), r.payload)
					if err != nil || !acc {
						b.Fatalf("send: accepted=%v err=%v", acc, err)
					}
					if _, avail, err := cl.ClockUntilRecv(sess, 8192); err != nil || !avail {
						b.Fatalf("clock_until_recv: avail=%v err=%v", avail, err)
					}
					if rsp, err := cl.Recv(sess, 0); err != nil || !rsp.Have {
						b.Fatalf("recv: have=%v err=%v", rsp.Have, err)
					}
				}
				if err := cl.CloseSession(sess); err != nil {
					b.Fatal(err)
				}
			}
			tenant() // warm the pool with one build and release
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tenant()
			}
		})
	}
}
