package device

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// wireHost is the device's side of the host wire API (Simulator.SendWire
// and RecvWire): requests decode into one reused scratch the device
// adopts on Send, and responses encode into one reused buffer.
type wireHost struct {
	d    *Device
	rqst packet.Rqst
	buf  []uint64
}

func (h *wireHost) send(link int, words []uint64) error {
	if err := packet.DecodeRqstInto(&h.rqst, words); err != nil {
		return err
	}
	return h.d.Send(link, &h.rqst)
}

// recv clocks the device until a response arrives on link and returns it
// in wire form.
func (h *wireHost) recv(t *testing.T, link int) []uint64 {
	t.Helper()
	for c := 0; c < 16; c++ {
		h.d.Clock()
		if rsp, ok := h.d.Recv(link); ok {
			words, err := rsp.EncodeInto(h.buf)
			packet.PutRsp(rsp)
			if err != nil {
				t.Fatalf("encode response: %v", err)
			}
			h.buf = words
			return words
		}
	}
	t.Fatal("no wire response within 16 cycles")
	return nil
}

func encode(t *testing.T, r *packet.Rqst) []uint64 {
	t.Helper()
	words, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return words
}

// TestWireRoundTrip drives requests decoded from wire words through the
// device: every response it builds must encode back to wire words, and
// the decoded read response must carry the written data back.
func TestWireRoundTrip(t *testing.T) {
	d, err := New(0, config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	h := &wireHost{d: d}

	wr := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x200, TAG: 9, Payload: []uint64{0xABCD, 0x1234}}
	if err := h.send(0, encode(t, wr)); err != nil {
		t.Fatal(err)
	}
	wrRsp, err := packet.DecodeRsp(h.recv(t, 0))
	if err != nil {
		t.Fatalf("decode write response: %v", err)
	}
	if wrRsp.Cmd != hmccmd.WrRS || wrRsp.TAG != 9 || wrRsp.ERRSTAT != 0 {
		t.Fatalf("write response: %+v", wrRsp)
	}

	rd := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x200, TAG: 10}
	if err := h.send(0, encode(t, rd)); err != nil {
		t.Fatal(err)
	}
	rdRsp, err := packet.DecodeRsp(h.recv(t, 0))
	if err != nil {
		t.Fatalf("decode read response: %v", err)
	}
	if rdRsp.TAG != 10 || len(rdRsp.Payload) != 2 ||
		rdRsp.Payload[0] != 0xABCD || rdRsp.Payload[1] != 0x1234 {
		t.Fatalf("read response: %+v", rdRsp)
	}
}

// TestWireRejectsCorruptPackets checks that a wire packet failing
// validation is refused while still in words: nothing of it reaches the
// device, and the request already adopted from the same scratch executes
// untouched.
func TestWireRejectsCorruptPackets(t *testing.T) {
	d, err := New(0, config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	h := &wireHost{d: d}
	good := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x100, TAG: 1, Payload: []uint64{5, 6}}
	if err := h.send(0, encode(t, good)); err != nil {
		t.Fatal(err)
	}

	words := encode(t, &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x100, TAG: 2, Payload: []uint64{9, 9}})
	words[1] ^= 1 // flip a payload bit; the CRC no longer matches
	if err := h.send(0, words); !errors.Is(err, packet.ErrBadCRC) {
		t.Fatalf("send of corrupt packet: %v, want ErrBadCRC", err)
	}
	if err := h.send(0, words[:2]); !errors.Is(err, packet.ErrBadLength) {
		t.Fatalf("send of truncated packet: %v, want ErrBadLength", err)
	}
	if err := h.send(0, nil); !errors.Is(err, packet.ErrNilPacket) {
		t.Fatalf("send(nil): %v, want ErrNilPacket", err)
	}

	rsp, err := packet.DecodeRsp(h.recv(t, 0))
	if err != nil {
		t.Fatalf("decode write response: %v", err)
	}
	if rsp.TAG != 1 || rsp.ERRSTAT != 0 {
		t.Fatalf("write response: %+v", rsp)
	}
	for c := 0; c < 16; c++ {
		d.Clock()
		if extra, ok := d.Recv(0); ok {
			t.Fatalf("refused packet produced a response: %+v", extra)
		}
	}
	if v, err := d.Store().ReadUint64(0x100); err != nil || v != 5 {
		t.Fatalf("memory at 0x100 = %d, %v; want 5", v, err)
	}
}
