package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// rqstEqual compares two requests field by field (structs holding slices
// cannot use ==).
func rqstEqual(a, b *packet.Rqst) bool {
	if !reflect.DeepEqual(a.Payload, b.Payload) &&
		!(len(a.Payload) == 0 && len(b.Payload) == 0) {
		return false
	}
	ac, bc := *a, *b
	ac.Payload, bc.Payload = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// TestScratchMatchesBuilders pins a reused scratch to a fresh one: for
// every request shape, with stale state left in the scratch between
// calls, Build returns the request a one-shot Build does.
func TestScratchMatchesBuilders(t *testing.T) {
	var sc ReqScratch
	for _, sh := range requestShapes() {
		// Leave stale state behind so a Build that forgets a field
		// shows up.
		pl := sc.Payload(packet.MaxPayloadWords)
		for i := range pl {
			pl[i] = 0xDEAD_BEEF_0000 + uint64(i)
		}
		sc.req = packet.Rqst{Cmd: hmccmd.RD256, CUB: 3, ADRS: ^uint64(0), TAG: 999, LNG: 17, SLID: 3, Payload: pl}

		data := shapePayload(sh.words)
		want, err := Build(sh.cmd, 1, 0x40, 5, 2, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Build(sh.cmd, 1, 0x40, 5, 2, data)
		if err != nil {
			t.Fatal(err)
		}
		if !rqstEqual(got, want) {
			t.Fatalf("%v with %d words: got %+v, want %+v", sh.cmd, sh.words, got, want)
		}
	}
}

// TestScratchValidation covers each request Build refuses.
func TestScratchValidation(t *testing.T) {
	var sc ReqScratch
	for _, tc := range []struct {
		cmd     hmccmd.Rqst
		payload []uint64
	}{
		{hmccmd.Rqst(hmccmd.NumRqst), nil},                        // not a command
		{hmccmd.RD16, make([]uint64, 2)},                          // a read carries no data
		{hmccmd.WR64, make([]uint64, 4)},                          // short of the write's size
		{hmccmd.WR16, make([]uint64, 3)},                          // half a FLIT
		{hmccmd.ADD16, nil},                                       // atomic without its operand
		{hmccmd.XOR16, []uint64{1}},                               // half a FLIT
		{hmccmd.CMC125, []uint64{1}},                              // half a FLIT
		{hmccmd.CMC125, make([]uint64, packet.MaxPayloadWords+2)}, // beyond the longest packet
	} {
		if _, err := sc.Build(tc.cmd, 0, 0, 0, 0, tc.payload); err == nil {
			t.Errorf("Build accepted %v with %d payload words", tc.cmd, len(tc.payload))
		}
	}
}

// TestBuildRejectsCUBBeyondField checks that Build refuses a cube the
// 3-bit CUB field cannot hold instead of narrowing it onto another cube
// (256 would otherwise address cube 0).
func TestBuildRejectsCUBBeyondField(t *testing.T) {
	var sc ReqScratch
	for _, cub := range []int{-1, packet.MaxCUB + 1, 256, 257} {
		if _, err := sc.Build(hmccmd.RD16, cub, 0x40, 1, 0, nil); !errors.Is(err, ErrBadCUB) {
			t.Errorf("cube %d: %v, want ErrBadCUB", cub, err)
		}
	}
	if _, err := sc.Build(hmccmd.RD16, packet.MaxCUB, 0x40, 1, 0, nil); err != nil {
		t.Errorf("cube %d: %v", packet.MaxCUB, err)
	}
}

// TestScratchPayloadIdiom checks the zero-copy Payload path: the slice
// handed out is the one the built request carries.
func TestScratchPayloadIdiom(t *testing.T) {
	var sc ReqScratch
	pl := sc.Payload(2)
	pl[0], pl[1] = 11, 22
	r, err := sc.Build(hmccmd.WR16, 0, 0x100, 1, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	if &r.Payload[0] != &pl[0] {
		t.Fatal("payload was copied out of the scratch buffer")
	}
	if r.Payload[0] != 11 || r.Payload[1] != 22 {
		t.Fatalf("payload content: %v", r.Payload)
	}
}

// TestScratchReuseThroughSend drives two writes and a read through one
// scratch against a live device, proving the adoption contract end to
// end: reusing the scratch immediately after Send must not corrupt the
// first request.
func TestScratchReuseThroughSend(t *testing.T) {
	s, err := New(config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	var sc ReqScratch

	roundTrip := func(r *packet.Rqst) *packet.Rsp {
		t.Helper()
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 16; c++ {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				return rsp
			}
		}
		t.Fatal("no response within 16 cycles")
		return nil
	}

	pl := sc.Payload(2)
	pl[0], pl[1] = 0x1111, 0x2222
	w1, err := sc.Build(hmccmd.WR16, 0, 0x100, 1, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, w1); err != nil {
		t.Fatal(err)
	}
	// Immediately rebuild on the same scratch: a second write elsewhere.
	pl = sc.Payload(2)
	pl[0], pl[1] = 0x3333, 0x4444
	w2, err := sc.Build(hmccmd.WR16, 0, 0x200, 2, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseRsp(roundTrip(w2))
	for c := 0; c < 16; c++ {
		if rsp, ok := s.Recv(0); ok {
			ReleaseRsp(rsp)
			break
		}
		s.Clock()
	}

	rd, err := sc.Build(hmccmd.RD16, 0, 0x100, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsp := roundTrip(rd)
	if rsp.Payload[0] != 0x1111 || rsp.Payload[1] != 0x2222 {
		t.Fatalf("memory at 0x100: %#x %#x, want 0x1111 0x2222", rsp.Payload[0], rsp.Payload[1])
	}
	ReleaseRsp(rsp)
}

// TestSimWireRoundTrip drives the hmcsim_send/hmcsim_recv-style host
// API: encoded request words in, encoded response words out, with the
// read carrying the written data back, and malformed packets refused
// before anything enters the device.
func TestSimWireRoundTrip(t *testing.T) {
	s, err := New(config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(r *packet.Rqst) *packet.Rsp {
		t.Helper()
		words, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SendWire(0, words); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for c := 0; c < 16 && got == nil; c++ {
			s.Clock()
			got, _ = s.RecvWire(0)
		}
		if got == nil {
			t.Fatal("no wire response within 16 cycles")
		}
		rsp, err := packet.DecodeRsp(got)
		if err != nil {
			t.Fatal(err)
		}
		return rsp
	}
	wr := roundTrip(&packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x500, TAG: 4, Payload: []uint64{7, 8}})
	if wr.Cmd != hmccmd.WrRS || wr.TAG != 4 || wr.ERRSTAT != 0 {
		t.Fatalf("write response: %+v", wr)
	}
	rd := roundTrip(&packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x500, TAG: 5})
	if rd.TAG != 5 || len(rd.Payload) != 2 || rd.Payload[0] != 7 || rd.Payload[1] != 8 {
		t.Fatalf("read response: %+v", rd)
	}

	words, err := (&packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x100, TAG: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	words[0] ^= 1 << 30 // flip an ADRS bit; the CRC no longer matches
	if err := s.SendWire(0, words); !errors.Is(err, packet.ErrBadCRC) {
		t.Fatalf("SendWire on corrupt packet: %v, want ErrBadCRC", err)
	}
	if err := s.SendWire(0, nil); !errors.Is(err, packet.ErrNilPacket) {
		t.Fatalf("SendWire(nil): %v, want ErrNilPacket", err)
	}
}
