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

// TestScratchMatchesBuilders pins every ReqScratch builder to the
// allocating builder it mirrors, reusing one scratch across calls with
// dirty state in between.
func TestScratchMatchesBuilders(t *testing.T) {
	var sc ReqScratch

	dirty := func() {
		// Leave stale state behind so a builder that forgets a field
		// shows up.
		pl := sc.Payload(packet.MaxPayloadWords)
		for i := range pl {
			pl[i] = 0xDEAD_BEEF_0000 + uint64(i)
		}
		sc.req = packet.Rqst{Cmd: hmccmd.RD256, CUB: 3, ADRS: ^uint64(0), TAG: 999, LNG: 17, SLID: 3, Payload: pl}
	}

	for _, n := range []int{16, 32, 48, 64, 80, 96, 112, 128, 256} {
		dirty()
		want, err := BuildRead(2, 0x1234, 7, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.BuildRead(2, 0x1234, 7, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		if !rqstEqual(got, want) {
			t.Fatalf("BuildRead(%d): got %+v, want %+v", n, got, want)
		}

		for _, posted := range []bool{false, true} {
			dirty()
			data := make([]uint64, n/8)
			for i := range data {
				data[i] = uint64(i) * 3
			}
			want, err = BuildWrite(1, 0x40, 5, 2, data, posted)
			if err != nil {
				t.Fatal(err)
			}
			got, err = sc.BuildWrite(1, 0x40, 5, 2, data, posted)
			if err != nil {
				t.Fatal(err)
			}
			if !rqstEqual(got, want) {
				t.Fatalf("BuildWrite(%d,posted=%v): got %+v, want %+v", n, posted, got, want)
			}
		}
	}

	dirty()
	want, err := BuildAtomic(hmccmd.XOR16, 0, 0x80, 3, 0, []uint64{0xAA, 0xBB})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.BuildAtomic(hmccmd.XOR16, 0, 0x80, 3, 0, []uint64{0xAA, 0xBB})
	if err != nil {
		t.Fatal(err)
	}
	if !rqstEqual(got, want) {
		t.Fatalf("BuildAtomic: got %+v, want %+v", got, want)
	}

	dirty()
	want, err = BuildCMC(hmccmd.CMC125, 0, 0x10, 2, 0, []uint64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	got, err = sc.BuildCMC(hmccmd.CMC125, 0, 0x10, 2, 0, []uint64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !rqstEqual(got, want) {
		t.Fatalf("BuildCMC: got %+v, want %+v", got, want)
	}
}

// TestScratchValidation mirrors the builder error paths.
func TestScratchValidation(t *testing.T) {
	var sc ReqScratch
	if _, err := sc.BuildRead(0, 0, 0, 0, 17); !errors.Is(err, ErrBadSize) {
		t.Fatalf("BuildRead(17): %v", err)
	}
	if _, err := sc.BuildWrite(0, 0, 0, 0, make([]uint64, 3), false); !errors.Is(err, ErrBadSize) {
		t.Fatalf("BuildWrite(24B): %v", err)
	}
	if _, err := sc.BuildAtomic(hmccmd.RD16, 0, 0, 0, 0, nil); err == nil {
		t.Fatal("BuildAtomic(RD16) should fail")
	}
	if _, err := sc.BuildAtomic(hmccmd.XOR16, 0, 0, 0, 0, []uint64{1}); err == nil {
		t.Fatal("BuildAtomic with short payload should fail")
	}
	if _, err := sc.BuildCMC(hmccmd.RD16, 0, 0, 0, 0, nil); err == nil {
		t.Fatal("BuildCMC(RD16) should fail")
	}
	if _, err := sc.BuildCMC(hmccmd.CMC125, 0, 0, 0, 0, []uint64{1}); err == nil {
		t.Fatal("BuildCMC with odd payload should fail")
	}
}

// TestScratchPayloadIdiom checks the zero-copy Payload path: the slice
// handed out is the one the built request carries.
func TestScratchPayloadIdiom(t *testing.T) {
	var sc ReqScratch
	pl := sc.Payload(2)
	pl[0], pl[1] = 11, 22
	r, err := sc.BuildWrite(0, 0x100, 1, 0, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if &r.Payload[0] != &pl[0] {
		t.Fatal("payload was copied out of the scratch buffer")
	}
	if r.Payload[0] != 11 || r.Payload[1] != 22 {
		t.Fatalf("payload content: %v", r.Payload)
	}
	if !sc.Owns(r) {
		t.Fatal("Owns must recognize the scratch's own request")
	}
	if sc.Owns(&packet.Rqst{}) {
		t.Fatal("Owns must reject a foreign request")
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
	w1, err := sc.BuildWrite(0, 0x100, 1, 0, pl, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, w1); err != nil {
		t.Fatal(err)
	}
	// Immediately rebuild on the same scratch: a second write elsewhere.
	pl = sc.Payload(2)
	pl[0], pl[1] = 0x3333, 0x4444
	w2, err := sc.BuildWrite(0, 0x200, 2, 0, pl, false)
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

	rd, err := sc.BuildRead(0, 0x100, 3, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	rsp := roundTrip(rd)
	if rsp.Payload[0] != 0x1111 || rsp.Payload[1] != 0x2222 {
		t.Fatalf("memory at 0x100: %#x %#x, want 0x1111 0x2222", rsp.Payload[0], rsp.Payload[1])
	}
	ReleaseRsp(rsp)
}

// TestSimWireRoundTrip drives the simulator-level encoded-packet API.
func TestSimWireRoundTrip(t *testing.T) {
	s, err := New(config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	wr := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x500, TAG: 4, Payload: []uint64{7, 8}}
	words, err := wr.Encode()
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
	if rsp.Cmd != hmccmd.WrRS || rsp.TAG != 4 || rsp.ERRSTAT != 0 {
		t.Fatalf("write response: %+v", rsp)
	}

	// Corrupt packets must be rejected before reaching the device.
	words[0] ^= 1 << 24
	if err := s.SendWire(0, words); !errors.Is(err, packet.ErrBadCRC) {
		t.Fatalf("SendWire on corrupt packet: %v, want ErrBadCRC", err)
	}
}

// TestScratchBuildGeneric pins the generic builder against the shaped
// ones: for every architected command class and a CMC slot, Build
// produces the same request the shaped builder does, and rejects
// payloads that disagree with the command's architected length.
func TestScratchBuildGeneric(t *testing.T) {
	var a, b ReqScratch

	ra, err := a.BuildRead(0, 0x1000, 7, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Build(hmccmd.RD64, 0, 0x1000, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cmd != rb.Cmd || ra.ADRS != rb.ADRS || ra.TAG != rb.TAG ||
		ra.SLID != rb.SLID || len(rb.Payload) != 0 {
		t.Errorf("generic RD64 = %+v, want %+v", rb, ra)
	}

	data := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	ra, err = a.BuildWrite(0, 0x40, 3, 0, data, false)
	if err != nil {
		t.Fatal(err)
	}
	rb, err = b.Build(hmccmd.WR64, 0, 0x40, 3, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cmd != rb.Cmd || ra.LNG != rb.LNG || len(ra.Payload) != len(rb.Payload) {
		t.Errorf("generic WR64 = %+v, want %+v", rb, ra)
	}

	rb, err = b.Build(hmccmd.CMC125, 0, 0x40, 3, 0, []uint64{9, 0})
	if err != nil {
		t.Fatal(err)
	}
	if rb.LNG != 2 {
		t.Errorf("CMC 2-word payload LNG = %d, want 2", rb.LNG)
	}

	if _, err := b.Build(hmccmd.WR64, 0, 0, 0, 0, data[:4]); err == nil {
		t.Error("short WR64 payload accepted")
	}
	if _, err := b.Build(hmccmd.CMC125, 0, 0, 0, 0, data[:3]); err == nil {
		t.Error("odd CMC payload accepted")
	}
	if _, err := b.Build(hmccmd.Rqst(hmccmd.NumRqst), 0, 0, 0, 0, nil); err == nil {
		t.Error("invalid command accepted")
	}
}
