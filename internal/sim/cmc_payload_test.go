package sim

import (
	"testing"

	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// swapOp is a CMC operation that points ctx.RspPayload at a slice of its
// own instead of filling the buffer the device handed it.
type swapOp struct {
	rqst hmccmd.Rqst
	own  []uint64
}

func (o *swapOp) Register() cmc.Descriptor {
	return cmc.Descriptor{
		OpName: "test_swap_payload", Rqst: o.rqst, Cmd: uint32(o.rqst.Code()),
		RqstLen: 2, RspLen: 2, RspCmd: hmccmd.RdRS,
	}
}
func (o *swapOp) Str() string { return "test_swap_payload" }
func (o *swapOp) Execute(ctx *cmc.ExecContext) error {
	ctx.RspPayload = o.own
	return nil
}

// recvWire clocks until a response arrives on link 0 and returns its
// decoded wire image.
func recvWire(t *testing.T, s *Simulator) *packet.Rsp {
	t.Helper()
	for c := 0; c < 64; c++ {
		s.Clock()
		if words, ok := s.RecvWire(0); ok {
			rsp, err := packet.DecodeRsp(words)
			if err != nil {
				t.Fatal(err)
			}
			return rsp
		}
	}
	t.Fatal("no response within 64 cycles")
	return nil
}

// TestCMCSwappedRspPayload pins the contract on cmc.ExecContext.RspPayload:
// a slice of the wrong length faults the request with a 1-FLIT CMC-fault
// error response before it can reach the wire encoder, and a slice of
// the right length is copied out, so no later response on the simulator
// is ever written into the operation's memory.
func TestCMCSwappedRspPayload(t *testing.T) {
	s, err := New(config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	long := &swapOp{rqst: hmccmd.CMC4, own: []uint64{1, 2, 3, 4, 5}}
	own := []uint64{0xA1, 0xB2}
	right := &swapOp{rqst: hmccmd.CMC5, own: own}
	for _, op := range []cmc.Operation{long, right} {
		if err := d.CMC().Load(op); err != nil {
			t.Fatal(err)
		}
	}
	send := func(r *packet.Rqst, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
	}

	send(Build(hmccmd.CMC4, 0, 0x40, 1, 0, []uint64{0, 0}))
	rsp := recvWire(t, s)
	if rsp.Cmd != hmccmd.RspError || rsp.LNG != 1 || rsp.ERRSTAT != device.ErrstatCMCFault {
		t.Fatalf("wrong-length payload: %+v, want a 1-FLIT error response with ERRSTAT %#x", rsp, device.ErrstatCMCFault)
	}
	if v, err := d.Regs().Read(device.RegERR); err != nil || v&device.ErrBitCMCFault == 0 {
		t.Errorf("ERR register %#x (%v): CMC fault bit not latched", v, err)
	}

	send(Build(hmccmd.WR16, 0, 0x80, 2, 0, []uint64{0xDEAD, 0xBEEF}))
	recvWire(t, s)
	for i := 0; i < 3; i++ {
		send(Build(hmccmd.CMC5, 0, 0x40, uint16(10+i), 0, []uint64{0, 0}))
		rsp := recvWire(t, s)
		if rsp.Cmd != hmccmd.RdRS || rsp.ERRSTAT != 0 || len(rsp.Payload) != 2 || rsp.Payload[0] != 0xA1 || rsp.Payload[1] != 0xB2 {
			t.Fatalf("right-length payload: %+v, want RD_RS carrying [0xa1 0xb2]", rsp)
		}
		// Reads through both host paths recycle responses; none may land
		// in the operation's slice.
		send(Build(hmccmd.RD16, 0, 0x80, uint16(20+i), 0, nil))
		recvWire(t, s)
		send(Build(hmccmd.RD16, 0, 0x80, uint16(30+i), 0, nil))
		for c := 0; c < 64; c++ {
			s.Clock()
			if r, ok := s.Recv(0); ok {
				if &r.Payload[0] == &own[0] {
					t.Fatal("a read response adopted the operation's slice")
				}
				ReleaseRsp(r)
				break
			}
		}
		if own[0] != 0xA1 || own[1] != 0xB2 {
			t.Fatalf("round %d: the operation's slice was overwritten: %#x", i, own)
		}
	}
}
