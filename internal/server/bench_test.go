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

// BenchmarkServerSessionChurn measures init+close against a warm
// simulator pool — the allocation-free session recycling path the
// many-thousand-session harness leans on.
func BenchmarkServerSessionChurn(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	defer cl.Close()
	// Warm the pool with one build/release cycle.
	sess, err := cl.Init("4link-4gb")
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.CloseSession(sess); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := cl.Init("4link-4gb")
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.CloseSession(sess); err != nil {
			b.Fatal(err)
		}
	}
}
