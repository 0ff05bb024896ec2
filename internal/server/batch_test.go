package server

import (
	"net"
	"reflect"
	"testing"

	_ "repro/cmcops"
	"repro/internal/hmccmd"
)

func pipeClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestHelloNegotiation pins the negotiation handshake: the default and
// explicit-JSON forms keep line-JSON, binary switches both directions,
// and a bogus protocol name is refused without killing the connection.
func TestHelloNegotiation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()

	for _, c := range []struct {
		ask, want string
	}{
		{"", ProtoJSON},
		{ProtoJSON, ProtoJSON},
		{ProtoBinary, ProtoBinary},
	} {
		cl := pipeClient(t, srv)
		rsp, err := cl.Do(OpHello, Request{Proto: c.ask})
		if err != nil {
			t.Fatalf("hello(%q): %v", c.ask, err)
		}
		if rsp.Proto != c.want || rsp.V != Version {
			t.Errorf("hello(%q): proto %q v %d, want %q v %d", c.ask, rsp.Proto, rsp.V, c.want, Version)
		}
	}

	// An unknown protocol is refused and the connection stays JSON.
	cl := pipeClient(t, srv)
	if _, err := cl.Do(OpHello, Request{Proto: "gob"}); err == nil {
		t.Fatal("hello(gob) accepted")
	}
	if _, err := cl.Init("2gb-dev"); err != nil {
		t.Fatalf("init after refused hello: %v", err)
	}

	// The full client path: Hello then traffic, per protocol.
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		cl := pipeClient(t, srv)
		if err := cl.Hello(proto); err != nil {
			t.Fatalf("Hello(%s): %v", proto, err)
		}
		sess, err := cl.Init("2gb-dev")
		if err != nil {
			t.Fatalf("%s: init: %v", proto, err)
		}
		if cyc, err := cl.ClockN(sess, 5); err != nil || cyc != 5 {
			t.Fatalf("%s: clockn: cycle=%d err=%v", proto, cyc, err)
		}
		if err := cl.CloseSession(sess); err != nil {
			t.Fatalf("%s: close: %v", proto, err)
		}
	}
}

// TestBatchCoalescedRound pins the batch against the equivalent
// sequential ops: a write-read round issued as one frame observes the
// same acceptance, timing and data as one op per frame, in both wire
// encodings.
func TestBatchCoalescedRound(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()

	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		cl := pipeClient(t, srv)
		if err := cl.Hello(proto); err != nil {
			t.Fatal(err)
		}
		seqSess, err := cl.Init("4link-4gb")
		if err != nil {
			t.Fatal(err)
		}
		batSess, err := cl.Init("4link-4gb")
		if err != nil {
			t.Fatal(err)
		}

		wr, rd := hmccmd.WR64.Code(), hmccmd.RD64.Code()
		payload := []uint64{0xdead, 0xbeef, 3, 4, 5, 6, 7, 8}

		// Sequential reference on one session...
		var seq []Response
		for _, step := range []func() (Response, error){
			func() (Response, error) {
				return cl.Do(OpSend, Request{Sess: seqSess, Link: 0, Cmd: wr, Adrs: 256, Tag: 1, Payload: payload})
			},
			func() (Response, error) { return cl.Do(OpClockUntilRecv, Request{Sess: seqSess, Budget: 8192}) },
			func() (Response, error) { return cl.Do(OpRecv, Request{Sess: seqSess, Link: 0}) },
			func() (Response, error) {
				return cl.Do(OpSend, Request{Sess: seqSess, Link: 1, Cmd: rd, Adrs: 256, Tag: 2})
			},
			func() (Response, error) { return cl.Do(OpClockUntilRecv, Request{Sess: seqSess, Budget: 8192}) },
			func() (Response, error) { return cl.Do(OpRecv, Request{Sess: seqSess, Link: 1}) },
		} {
			rsp, err := step()
			if err != nil {
				t.Fatalf("%s: sequential: %v", proto, err)
			}
			seq = append(seq, rsp)
		}

		// ...and the same six ops as one coalesced frame.
		b := cl.NewBatch(batSess)
		b.Send(0, wr, 0, 256, 1, payload)
		b.ClockUntilRecv(8192)
		b.Recv(0)
		b.Send(1, rd, 0, 256, 2, nil)
		b.ClockUntilRecv(8192)
		b.Recv(1)
		got, err := b.Do()
		if err != nil {
			t.Fatalf("%s: batch: %v", proto, err)
		}
		if len(got) != len(seq) {
			t.Fatalf("%s: %d sub-responses, want %d", proto, len(got), len(seq))
		}
		for i := range seq {
			w, g := seq[i], got[i]
			// Sequential responses carry their own request ids; sub-ops
			// share the frame's. Everything else must match bit for bit.
			w.ID, g.ID = 0, 0
			w.opc, g.opc = 0, 0
			if len(w.Payload) == 0 {
				w.Payload = nil
			}
			if len(g.Payload) == 0 {
				g.Payload = nil
			}
			if !reflect.DeepEqual(w, g) {
				t.Errorf("%s: step %d:\n batch      %+v\n sequential %+v", proto, i, g, w)
			}
		}
		if got[5].Payload[0] != 0xdead || got[5].Payload[1] != 0xbeef {
			t.Errorf("%s: read-back payload %x", proto, got[5].Payload[:2])
		}
	}
}

// sendRaw queues an arbitrary sub-op, bypassing the typed adders — the
// rejection test needs to put non-batchable ops on the wire.
func (b *Batch) sendRaw(op Op) { b.add(op) }

// TestBatchPartialFailure pins non-transactional semantics: a failed
// sub-op answers with its own ok=false and code, and execution
// continues through the rest of the frame.
func TestBatchPartialFailure(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	cl := pipeClient(t, srv)
	sess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}

	b := cl.NewBatch(sess)
	b.ClockN(maxClockBatch + 1) // over the cap → limit
	b.Clock()                   // still runs
	b.Recv(99)                  // link out of range → sim
	b.ClockN(2)                 // still runs
	got, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d sub-responses, want 4", len(got))
	}
	if got[0].OK || got[0].Code != CodeLimit {
		t.Errorf("sub 0: %+v, want code %s", got[0], CodeLimit)
	}
	if !got[1].OK || got[1].Cycle != 1 {
		t.Errorf("sub 1: %+v, want ok at cycle 1", got[1])
	}
	if got[2].OK || got[2].Code != CodeSim {
		t.Errorf("sub 2: %+v, want code %s", got[2], CodeSim)
	}
	if !got[3].OK || got[3].Cycle != 3 {
		t.Errorf("sub 3: %+v, want ok at cycle 3", got[3])
	}

	// A batch against a dead session fails as a whole.
	if err := cl.CloseSession(sess); err != nil {
		t.Fatal(err)
	}
	b.Begin(sess)
	b.Clock()
	if _, err := b.Do(); err == nil {
		t.Fatal("batch against closed session succeeded")
	} else if pe, ok := err.(*ProtocolError); !ok || pe.Code != CodeNoSession {
		t.Fatalf("batch against closed session: %v, want %s", err, CodeNoSession)
	}
}

// TestBatchRejectsOverAndIllegal pins the frame-level limits: more than
// MaxBatchOps sub-ops is refused client-side, and non-batchable ops
// (init, close, nested batch) are refused by request validation.
func TestBatchRejectsOverAndIllegal(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	cl := pipeClient(t, srv)
	sess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}

	b := cl.NewBatch(sess)
	for i := 0; i < MaxBatchOps+1; i++ {
		b.Clock()
	}
	if _, err := b.Do(); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// Begin clears the overflow and the batch is reusable.
	b.Begin(sess)
	b.Clock()
	if rsps, err := b.Do(); err != nil || len(rsps) != 1 || !rsps[0].OK {
		t.Fatalf("batch after overflow reset: %v %+v", err, rsps)
	}

	for _, op := range []Op{OpInit, OpClose, OpBatch, OpHello} {
		b.Begin(sess)
		b.sendRaw(op)
		if _, err := b.Do(); err == nil {
			t.Errorf("batched %s accepted", op)
		}
	}
}
