package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	_ "repro/cmcops"
	"repro/internal/packet"
)

// TestAppendRequestGolden pins the canonical wire encoding of every
// operation — these exact bytes are the protocol.
func TestAppendRequestGolden(t *testing.T) {
	cases := []struct {
		op   Op
		req  Request
		want string
	}{
		{OpInit, Request{ID: 1, Preset: "4link-4gb"},
			`{"id":1,"op":"init","v":1,"preset":"4link-4gb"}`},
		{OpSend, Request{ID: 2, Sess: 7, Link: 1, Cmd: 56, Adrs: 64, Tag: 5, Payload: []uint64{1, 2}},
			`{"id":2,"op":"send","sess":7,"link":1,"cmd":56,"adrs":64,"tag":5,"payload":[1,2]}`},
		{OpSend, Request{ID: 3, Sess: 7, Cmd: 48, Cub: 2, Adrs: 4096, Tag: 9},
			`{"id":3,"op":"send","sess":7,"link":0,"cmd":48,"cub":2,"adrs":4096,"tag":9}`},
		{OpRecv, Request{ID: 4, Sess: 7, Link: 3},
			`{"id":4,"op":"recv","sess":7,"link":3}`},
		{OpClock, Request{ID: 5, Sess: 7},
			`{"id":5,"op":"clock","sess":7}`},
		{OpClockN, Request{ID: 6, Sess: 7, N: 32},
			`{"id":6,"op":"clockn","sess":7,"n":32}`},
		{OpClockUntilRecv, Request{ID: 7, Sess: 7, Budget: 4096},
			`{"id":7,"op":"clock_until_recv","sess":7,"budget":4096}`},
		{OpLoadCMC, Request{ID: 8, Sess: 7, Name: "hmc_lock"},
			`{"id":8,"op":"loadcmc","sess":7,"name":"hmc_lock"}`},
		{OpReset, Request{ID: 9, Sess: 7},
			`{"id":9,"op":"reset","sess":7}`},
		{OpStats, Request{ID: 10, Sess: 7},
			`{"id":10,"op":"stats","sess":7}`},
		{OpClose, Request{ID: 11, Sess: 7},
			`{"id":11,"op":"close","sess":7}`},
	}
	for _, c := range cases {
		got := string(AppendRequest(nil, c.op, &c.req))
		if got != c.want+"\n" {
			t.Errorf("%s: encoded %q, want %q", c.op, got, c.want)
		}
		// The canonical encoding must round-trip through the decoder.
		var dec Request
		op, err := DecodeRequest([]byte(c.want), &dec)
		if err != nil {
			t.Errorf("%s: decode: %v", c.op, err)
			continue
		}
		if op != c.op {
			t.Errorf("%s: decoded op %v", c.op, op)
		}
		norm := c.req
		if c.op == OpInit {
			norm.V = Version
		}
		norm.Op, dec.Op = "", ""
		dec.opc = 0
		if !reflect.DeepEqual(normPayload(norm), normPayload(dec)) {
			t.Errorf("%s: round-trip %+v, want %+v", c.op, dec, norm)
		}
	}
}

func normPayload(r Request) Request {
	if len(r.Payload) == 0 {
		r.Payload = nil
	}
	return r
}

// relevant keeps only the fields the canonical encoding carries for op
// — the round-trip identity the fuzzer checks (extraneous fields on a
// decoded line are dropped by design).
func relevant(op Op, r Request) Request {
	keep := Request{ID: r.ID}
	switch op {
	case OpInit:
		keep.Preset = r.Preset
	case OpSend:
		keep.Sess, keep.Link, keep.Cmd, keep.Cub = r.Sess, r.Link, r.Cmd, r.Cub
		keep.Adrs, keep.Tag = r.Adrs, r.Tag
		keep.Payload = r.Payload
	case OpRecv:
		keep.Sess, keep.Link = r.Sess, r.Link
	case OpClockN:
		keep.Sess, keep.N = r.Sess, r.N
	case OpClockUntilRecv:
		keep.Sess, keep.Budget = r.Sess, r.Budget
	case OpLoadCMC:
		keep.Sess, keep.Name = r.Sess, r.Name
	default:
		keep.Sess = r.Sess
	}
	return normPayload(keep)
}

// TestAppendResponseGolden pins the response encodings.
func TestAppendResponseGolden(t *testing.T) {
	cases := []struct {
		op   Op
		rsp  Response
		want string
	}{
		{OpInit, Response{ID: 1, OK: true, V: 1, Sess: 7},
			`{"id":1,"ok":true,"v":1,"sess":7,"cycle":0}`},
		{OpSend, Response{ID: 2, OK: true, Accepted: true, Cycle: 12},
			`{"id":2,"ok":true,"accepted":true,"cycle":12}`},
		{OpSend, Response{ID: 3, OK: true, Accepted: false, Cycle: 12},
			`{"id":3,"ok":true,"accepted":false,"cycle":12}`},
		{OpRecv, Response{ID: 4, OK: true, Have: false, Cycle: 40},
			`{"id":4,"ok":true,"have":false,"cycle":40}`},
		{OpRecv, Response{ID: 5, OK: true, Have: true, Cmd: 57, Tag: 5, Payload: []uint64{9, 0}, Cycle: 41},
			`{"id":5,"ok":true,"have":true,"cmd":57,"tag":5,"payload":[9,0],"cycle":41}`},
		{OpClock, Response{ID: 6, OK: true, Cycle: 13},
			`{"id":6,"ok":true,"cycle":13}`},
		{OpClockUntilRecv, Response{ID: 7, OK: true, Advanced: 100, Avail: true, Cycle: 112},
			`{"id":7,"ok":true,"adv":100,"avail":true,"cycle":112}`},
		{OpClose, Response{ID: 8, OK: true, Cycle: 99},
			`{"id":8,"ok":true,"cycle":99}`},
		{OpRecv, Response{ID: 9, Err: "unknown session 3", Code: CodeNoSession},
			`{"id":9,"ok":false,"err":"unknown session 3","code":"no_session"}`},
	}
	for _, c := range cases {
		got := string(AppendResponse(nil, c.op, &c.rsp))
		if got != c.want+"\n" {
			t.Errorf("%s: encoded %q, want %q", c.op, got, c.want)
		}
		// And the client's stdlib decoder must read back the same fields.
		var dec Response
		if err := json.Unmarshal([]byte(c.want), &dec); err != nil {
			t.Fatalf("%s: client decode: %v", c.op, err)
		}
		if len(dec.Payload) == 0 {
			dec.Payload = nil
		}
		norm := c.rsp
		if len(norm.Payload) == 0 {
			norm.Payload = nil
		}
		if !reflect.DeepEqual(dec, norm) {
			t.Errorf("%s: client decoded %+v, want %+v", c.op, dec, norm)
		}
	}
}

// TestDecodeRequestRejects pins structural validation: every malformed
// line is refused before it can reach a session.
func TestDecodeRequestRejects(t *testing.T) {
	big := `{"id":1,"op":"send","sess":1,"cmd":56,"payload":[` +
		strings.TrimSuffix(strings.Repeat("1,", packet.MaxPayloadWords+1), ",") + `]}`
	cases := []struct {
		name, line, wantCode string
	}{
		{"syntax", `{nope`, CodeBadRequest},
		{"non-object", `[1,2,3]`, CodeBadRequest},
		{"unknown op", `{"id":1,"op":"frobnicate","sess":1}`, CodeUnknownOp},
		{"missing op", `{"id":1,"sess":1}`, CodeUnknownOp},
		{"init without version", `{"id":1,"op":"init","preset":"2gb-dev"}`, CodeBadVersion},
		{"future version", `{"v":9,"id":1,"op":"clock","sess":1}`, CodeBadVersion},
		{"bad tag", fmt.Sprintf(`{"id":1,"op":"send","sess":1,"cmd":56,"tag":%d}`, packet.MaxTag+1), CodeBadRequest},
		{"negative link", `{"id":1,"op":"recv","sess":1,"link":-1}`, CodeBadRequest},
		{"negative cub", `{"id":1,"op":"send","sess":1,"cmd":56,"cub":-2}`, CodeBadRequest},
		{"oversized payload", big, CodeBadRequest},
		{"string where number", `{"id":"one","op":"clock","sess":1}`, CodeBadRequest},
	}
	var req Request
	for _, c := range cases {
		if _, err := DecodeRequest([]byte(c.line), &req); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.line)
		} else if !strings.HasPrefix(err.Error(), c.wantCode) {
			t.Errorf("%s: error %q, want code %s", c.name, err, c.wantCode)
		}
	}
}

// TestDecodeRequestReusesBuffers pins the pooled-decode contract: a
// recycled Request is fully overwritten, and its payload capacity is
// reused rather than reallocated.
func TestDecodeRequestReusesBuffers(t *testing.T) {
	req := &Request{Payload: make([]uint64, 0, packet.MaxPayloadWords)}
	if _, err := DecodeRequest([]byte(`{"id":1,"op":"send","sess":2,"cmd":56,"adrs":64,"tag":3,"payload":[1,2,3,4]}`), req); err != nil {
		t.Fatal(err)
	}
	if len(req.Payload) != 4 || cap(req.Payload) != packet.MaxPayloadWords {
		t.Fatalf("payload len=%d cap=%d, want reused capacity %d",
			len(req.Payload), cap(req.Payload), packet.MaxPayloadWords)
	}
	// A following decode must not leak the previous request's fields.
	if _, err := DecodeRequest([]byte(`{"id":9,"op":"clock","sess":5}`), req); err != nil {
		t.Fatal(err)
	}
	if req.Adrs != 0 || req.Tag != 0 || len(req.Payload) != 0 || req.Cmd != 0 {
		t.Fatalf("stale fields survived reuse: %+v", req)
	}
}

// TestWireGoldenTranscript drives a live server through a raw
// connection and pins the exact response bytes — the end-to-end golden
// transcript of a minimal session.
func TestWireGoldenTranscript(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	here, there := net.Pipe()
	srv.ServeConn(there)
	defer here.Close()

	br := bufio.NewReader(here)
	exchange := func(req, want string) {
		t.Helper()
		if _, err := here.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		got, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if got != want+"\n" {
			t.Errorf("request %s\n got %s want %s", req, got, want)
		}
	}

	exchange(`{"v":1,"id":1,"op":"init","preset":"2GB-Dev"}`,
		`{"id":1,"ok":true,"v":1,"sess":1,"cycle":0}`)
	exchange(`{"id":2,"op":"clockn","sess":1,"n":8}`,
		`{"id":2,"ok":true,"cycle":8}`)
	exchange(`{"id":3,"op":"recv","sess":1,"link":0}`,
		`{"id":3,"ok":true,"have":false,"cycle":8}`)
	exchange(`{"id":4,"op":"reset","sess":1}`,
		`{"id":4,"ok":true,"cycle":0}`)
	exchange(`{"id":5,"op":"clock","sess":1}`,
		`{"id":5,"ok":true,"cycle":1}`)
	exchange(`{"id":6,"op":"close","sess":1}`,
		`{"id":6,"ok":true,"cycle":1}`)
	exchange(`{"id":7,"op":"clock","sess":1}`,
		`{"id":7,"ok":false,"err":"unknown session 1","code":"no_session"}`)
}

// TestWireMalformedInput feeds a live server garbage and checks each
// line draws a structured refusal while the connection stays usable.
func TestWireMalformedInput(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	here, there := net.Pipe()
	srv.ServeConn(there)
	defer here.Close()
	br := bufio.NewReader(here)

	sendRaw := func(line string) Response {
		t.Helper()
		if _, err := here.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		got, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		var rsp Response
		if err := json.Unmarshal([]byte(got), &rsp); err != nil {
			t.Fatalf("unparseable response %q: %v", got, err)
		}
		return rsp
	}

	for _, c := range []struct{ line, wantCode string }{
		{`{broken`, CodeBadRequest},
		{`{"id":4,"op":"warp","sess":1}`, CodeUnknownOp},
		{`{"v":3,"id":5,"op":"init","preset":"2gb-dev"}`, CodeBadVersion},
		{fmt.Sprintf(`{"id":6,"op":"send","sess":1,"cmd":56,"tag":%d}`, packet.MaxTag+1), CodeBadRequest},
	} {
		if rsp := sendRaw(c.line); rsp.OK || rsp.Code != c.wantCode {
			t.Errorf("line %q: response %+v, want code %s", c.line, rsp, c.wantCode)
		}
	}

	// The connection survives the abuse: a valid session still works,
	// even on a line padded to exactly the length cap.
	init := `{"v":1,"id":9,"op":"init","preset":"2gb-dev"}`
	if rsp := sendRaw(init + strings.Repeat(" ", maxLineBytes-len(init))); !rsp.OK {
		t.Fatalf("init after garbage: %+v", rsp)
	}
	if errs := srv.Metrics().Lookup("hmc_server_protocol_errors_total").Number(); errs != 4 {
		t.Errorf("protocol error counter = %v, want 4", errs)
	}
}

// FuzzDecodeRequest exercises the line decoder with arbitrary input: it
// must never panic, and anything it accepts must survive a re-encode/
// re-decode round trip unchanged.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"id":1,"op":"init","preset":"4link-4gb"}`))
	f.Add([]byte(`{"id":2,"op":"send","sess":7,"link":1,"cmd":56,"adrs":64,"tag":5,"payload":[1,2]}`))
	f.Add([]byte(`{"id":6,"op":"clockn","sess":7,"n":32}`))
	f.Add([]byte(`{"id":8,"op":"loadcmc","sess":7,"name":"hmc_lock"}`))
	f.Add([]byte(`{broken`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		op, err := DecodeRequest(line, &req)
		if err != nil {
			return
		}
		wire := AppendRequest(nil, op, &req)
		var again Request
		op2, err := DecodeRequest(wire[:len(wire)-1], &again)
		if err != nil {
			t.Fatalf("re-decode of %q (from %q): %v", wire, line, err)
		}
		if op2 != op {
			t.Fatalf("op changed across round trip: %v -> %v", op, op2)
		}
		if !reflect.DeepEqual(relevant(op, req), relevant(op, again)) {
			t.Fatalf("round trip changed request:\n was %+v\n now %+v", req, again)
		}
	})
}
