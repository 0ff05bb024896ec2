package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
)

// frameBody strips the length prefix off one encoded frame.
func frameBody(t *testing.T, wire []byte) []byte {
	t.Helper()
	if len(wire) < frameHeaderLen {
		t.Fatalf("frame shorter than its header: %d bytes", len(wire))
	}
	n := binary.LittleEndian.Uint32(wire)
	if int(n) != len(wire)-frameHeaderLen {
		t.Fatalf("length prefix %d, body %d", n, len(wire)-frameHeaderLen)
	}
	return wire[frameHeaderLen:]
}

// TestBinaryRequestRoundTrip pins that every operation's binary
// encoding decodes back to the identical request — the binary
// counterpart of the JSON golden round trip. Identity is checked by
// re-encoding: the binary form is canonical, so equal requests encode
// to equal bytes.
func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := []struct {
		op  Op
		req Request
	}{
		{OpInit, Request{ID: 1, Preset: "4link-4gb"}},
		{OpSend, Request{ID: 2, Sess: 7, Link: 1, Cmd: 56, Adrs: 64, Tag: 5, Payload: []uint64{1, 2}}},
		{OpSend, Request{ID: 3, Sess: 7, Cmd: 48, Cub: 2, Adrs: 4096, Tag: 9}},
		{OpRecv, Request{ID: 4, Sess: 7, Link: 3}},
		{OpClock, Request{ID: 5, Sess: 7}},
		{OpClockN, Request{ID: 6, Sess: 7, N: 32}},
		{OpClockUntilRecv, Request{ID: 7, Sess: 7, Budget: 4096}},
		{OpLoadCMC, Request{ID: 8, Sess: 7, Name: "hmc_lock"}},
		{OpReset, Request{ID: 9, Sess: 7}},
		{OpStats, Request{ID: 10, Sess: 7}},
		{OpClose, Request{ID: 11, Sess: 7}},
	}
	for _, c := range reqs {
		wire := AppendRequestBinary(nil, c.op, &c.req)
		var dec Request
		op, err := DecodeRequestBinary(frameBody(t, wire), &dec)
		if err != nil {
			t.Errorf("%s: decode: %v", c.op, err)
			continue
		}
		if op != c.op {
			t.Errorf("%s: decoded op %v", c.op, op)
		}
		again := AppendRequestBinary(nil, op, &dec)
		if !bytes.Equal(wire, again) {
			t.Errorf("%s: round trip changed encoding\n was %x\n now %x", c.op, wire, again)
		}
	}

	// A batch frame: build through the client-side accumulator so the
	// sub-op tags are set the way real traffic sets them.
	b := (&Client{}).NewBatch(7)
	b.Send(1, 56, 0, 64, 5, []uint64{1, 2})
	b.Clock()
	b.ClockN(16)
	b.ClockUntilRecv(4096)
	b.Recv(1)
	b.LoadCMC("hmc_lock")
	b.Reset()
	b.Stats()
	b.req.ID = 12
	wire := AppendRequestBinary(nil, OpBatch, &b.req)
	var dec Request
	op, err := DecodeRequestBinary(frameBody(t, wire), &dec)
	if err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	if op != OpBatch || len(dec.Ops) != 8 {
		t.Fatalf("batch decoded op=%v ops=%d", op, len(dec.Ops))
	}
	if !bytes.Equal(wire, AppendRequestBinary(nil, op, &dec)) {
		t.Fatal("batch round trip changed encoding")
	}

	// And the JSON form of the same batch must decode to the same frame.
	line := AppendRequest(nil, OpBatch, &b.req)
	var fromJSON Request
	if _, err := DecodeRequest(line[:len(line)-1], &fromJSON); err != nil {
		t.Fatalf("batch json decode: %v", err)
	}
	if !bytes.Equal(wire, AppendRequestBinary(nil, OpBatch, &fromJSON)) {
		t.Fatal("json and binary batch decodes diverge")
	}
}

// TestBinaryResponseRoundTrip pins the response codec, including error
// statuses, recv payloads, the embedded stats blob, and batch frames
// with mixed sub-op outcomes.
func TestBinaryResponseRoundTrip(t *testing.T) {
	mk := func(op Op, rsp Response) Response { rsp.opc = op; return rsp }
	cases := []struct {
		op  Op
		rsp Response
	}{
		{OpInit, mk(OpInit, Response{ID: 1, OK: true, V: 1, Sess: 7})},
		{OpSend, mk(OpSend, Response{ID: 2, OK: true, Accepted: true, Cycle: 12})},
		{OpRecv, mk(OpRecv, Response{ID: 4, OK: true, Have: false, Cycle: 40})},
		{OpRecv, mk(OpRecv, Response{ID: 5, OK: true, Have: true, Cmd: 57, Tag: 5, Payload: []uint64{9, 0}, Cycle: 41})},
		{OpRecv, mk(OpRecv, Response{ID: 6, OK: true, Have: true, Cmd: 57, Tag: 5, Dinv: true, Errstat: 3, Cycle: 42})},
		{OpClock, mk(OpClock, Response{ID: 7, OK: true, Cycle: 13})},
		{OpClockUntilRecv, mk(OpClockUntilRecv, Response{ID: 8, OK: true, Advanced: 100, Avail: true, Cycle: 112})},
		{OpRecv, mk(OpRecv, Response{ID: 9, Err: "unknown session 3", Code: CodeNoSession})},
		{OpBatch, mk(OpBatch, Response{ID: 10, OK: true, Cycle: 50, Rsps: []Response{
			mk(OpSend, Response{OK: true, Accepted: true, Cycle: 49}),
			mk(OpClockN, Response{Err: "n 9 exceeds batch cap 4", Code: CodeLimit}),
			mk(OpRecv, Response{OK: true, Have: true, Cmd: 57, Tag: 2, Payload: []uint64{1}, Cycle: 50}),
		}})},
	}
	for _, c := range cases {
		wire := AppendResponseBinary(nil, c.op, &c.rsp)
		var dec Response
		if err := DecodeResponseBinary(frameBody(t, wire), &dec); err != nil {
			t.Errorf("%s(id=%d): decode: %v", c.op, c.rsp.ID, err)
			continue
		}
		if dec.opc != c.op {
			t.Errorf("%s: self-describing op byte decoded as %v", c.op, dec.opc)
		}
		again := AppendResponseBinary(nil, dec.opc, &dec)
		if !bytes.Equal(wire, again) {
			t.Errorf("%s(id=%d): round trip changed encoding\n was %x\n now %x", c.op, c.rsp.ID, wire, again)
		}
	}
}

// TestBinaryMalformedFrames feeds a binary-negotiated connection broken
// frames and checks each draws a structured error while the connection
// keeps serving — the resynchronization property that motivates length
// prefixes.
func TestBinaryMalformedFrames(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	here, there := net.Pipe()
	srv.ServeConn(there)
	defer here.Close()
	br := bufio.NewReader(here)

	// Negotiate by hand: hello is line-JSON even for binary connections.
	if _, err := here.Write([]byte(`{"v":1,"id":1,"op":"hello","proto":"binary"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"proto":"binary"`) {
		t.Fatalf("hello response %q, err %v", line, err)
	}

	writeFrame := func(body []byte) {
		t.Helper()
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
		if _, err := here.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := here.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	readRsp := func() Response {
		t.Helper()
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
		var rsp Response
		if err := DecodeResponseBinary(body, &rsp); err != nil {
			t.Fatalf("undecodable error response: %v", err)
		}
		return rsp
	}

	clockBody := func(id, sess uint64) []byte {
		b := append([]byte{byte(OpClock)}, make([]byte, 16)...)
		binary.LittleEndian.PutUint64(b[1:], id)
		binary.LittleEndian.PutUint64(b[9:], sess)
		return b
	}

	cases := []struct {
		name     string
		body     []byte
		wantCode string
	}{
		{"empty body", nil, CodeBadRequest},
		{"unknown op byte", []byte{200}, CodeUnknownOp},
		{"hello has no binary form", []byte{byte(OpHello)}, CodeUnknownOp},
		{"truncated id", []byte{byte(OpClock), 1, 2}, CodeBadRequest},
		{"truncated send payload", func() []byte {
			req := Request{ID: 3, Sess: 1, Cmd: 56, Tag: 1, Payload: []uint64{1, 2, 3}}
			w := AppendRequestBinary(nil, OpSend, &req)
			return w[frameHeaderLen : len(w)-8] // drop the last payload word
		}(), CodeBadRequest},
		{"trailing bytes", append(clockBody(4, 1), 0xAA), CodeBadRequest},
		{"batch count lies", func() []byte {
			b := clockBody(5, 1)[:1+8+8] // op|id|sess
			b[0] = byte(OpBatch)
			return append(b, 3, 0) // claims 3 sub-ops, carries none
		}(), CodeBadRequest},
		{"batch smuggles init", func() []byte {
			b := clockBody(6, 1)[:1+8+8]
			b[0] = byte(OpBatch)
			b = append(b, 1, 0)
			return append(b, byte(OpInit), 0) // init is not batchable
		}(), CodeBadRequest},
	}
	for _, c := range cases {
		writeFrame(c.body)
		rsp := readRsp()
		if rsp.OK || rsp.Code != c.wantCode {
			t.Errorf("%s: response %+v, want code %s", c.name, rsp, c.wantCode)
		}
	}

	// An oversized frame is discarded in full and answered; the length
	// prefix keeps the stream in sync.
	writeFrame(make([]byte, maxLineBytes+1))
	if rsp := readRsp(); rsp.OK || rsp.Code != CodeBadRequest {
		t.Errorf("oversized frame: response %+v", rsp)
	}

	// The connection survives all of it: a real init works.
	init := Request{ID: 100, Preset: "2gb-dev"}
	wire := AppendRequestBinary(nil, OpInit, &init)
	writeFrame(wire[frameHeaderLen:])
	if rsp := readRsp(); !rsp.OK || rsp.Sess == 0 {
		t.Fatalf("init after malformed frames: %+v", rsp)
	}
}

// FuzzDecodeRequestBinary exercises the binary decoder with arbitrary
// frame bodies: it must never panic, and anything it accepts must
// re-encode and re-decode to the identical canonical frame.
func FuzzDecodeRequestBinary(f *testing.F) {
	seed := func(op Op, req Request) {
		wire := AppendRequestBinary(nil, op, &req)
		f.Add(wire[frameHeaderLen:])
	}
	seed(OpInit, Request{ID: 1, Preset: "4link-4gb"})
	seed(OpSend, Request{ID: 2, Sess: 7, Link: 1, Cmd: 56, Adrs: 64, Tag: 5, Payload: []uint64{1, 2}})
	seed(OpClockN, Request{ID: 6, Sess: 7, N: 32})
	seed(OpLoadCMC, Request{ID: 8, Sess: 7, Name: "hmc_lock"})
	b := (&Client{}).NewBatch(7)
	b.Send(0, 56, 0, 64, 1, []uint64{3})
	b.ClockUntilRecv(512)
	b.Recv(0)
	wire := AppendRequestBinary(nil, OpBatch, &b.req)
	f.Add(wire[frameHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte{200, 1, 2, 3})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		op, err := DecodeRequestBinary(body, &req)
		if err != nil {
			return
		}
		wire := AppendRequestBinary(nil, op, &req)
		var again Request
		op2, err := DecodeRequestBinary(wire[frameHeaderLen:], &again)
		if err != nil {
			t.Fatalf("re-decode of %x (from %x): %v", wire, body, err)
		}
		if op2 != op {
			t.Fatalf("op changed across round trip: %v -> %v", op, op2)
		}
		if !bytes.Equal(wire, AppendRequestBinary(nil, op2, &again)) {
			t.Fatalf("round trip changed request encoding:\n was %x\n now %x", wire, AppendRequestBinary(nil, op2, &again))
		}
	})
}
