package sim

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

func newChain(t *testing.T, n int) *Simulator {
	t.Helper()
	s, err := New(config.TwoGBDev(), WithDevices(n, KindChain))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sendRecv drives a request to completion, returning the response and
// round-trip cycles.
func sendRecv(t *testing.T, s *Simulator, r *packet.Rqst) (*packet.Rsp, int) {
	t.Helper()
	if err := s.Send(0, r); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		s.Clock()
		if rsp, ok := s.Recv(0); ok {
			return rsp, i
		}
	}
	t.Fatalf("no response for CUB %d", r.CUB)
	return nil, 0
}

func TestHops(t *testing.T) {
	chain := newChain(t, 4)
	if chain.hops(0, 3) != 3 || chain.hops(2, 1) != 1 || chain.hops(1, 1) != 0 {
		t.Error("chain hop counts wrong")
	}
	star, err := New(config.TwoGBDev(), WithDevices(4, KindStar))
	if err != nil {
		t.Fatal(err)
	}
	if star.hops(0, 3) != 1 || star.hops(1, 2) != 2 {
		t.Error("star hop counts wrong")
	}
	ring, err := New(config.TwoGBDev(), WithDevices(6, KindRing))
	if err != nil {
		t.Fatal(err)
	}
	if ring.hops(0, 5) != 1 || ring.hops(0, 3) != 3 || ring.hops(1, 5) != 2 {
		t.Error("ring hop counts wrong")
	}
}

func TestLocalDeviceRoundTrip(t *testing.T) {
	s := newChain(t, 2)
	rsp, cycles := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 1, CUB: 0})
	if rsp.CUB != 0 {
		t.Fatalf("response CUB %d", rsp.CUB)
	}
	if cycles != 3 {
		t.Errorf("local round trip %d cycles, want 3", cycles)
	}
}

func TestRemoteDeviceRoutingAndLatency(t *testing.T) {
	s := newChain(t, 4)
	// Write on cube 2, then read it back: data must land on cube 2 only.
	wr := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x100, TAG: 2, CUB: 2, Payload: []uint64{0xAB, 0}}
	rsp, _ := sendRecv(t, s, wr)
	if rsp.CUB != 2 {
		t.Fatalf("write response CUB %d", rsp.CUB)
	}
	v, _ := s.Devices()[2].Store().ReadUint64(0x100)
	if v != 0xAB {
		t.Fatalf("cube 2 memory %#x", v)
	}
	if v0, _ := s.Devices()[0].Store().ReadUint64(0x100); v0 != 0 {
		t.Fatal("write leaked onto cube 0")
	}

	// Remote round trips cost 2 extra cycles per hop.
	_, local := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 3, CUB: 0})
	_, oneHop := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 4, CUB: 1})
	_, threeHop := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 5, CUB: 3})
	if oneHop != local+2 {
		t.Errorf("one-hop RTT %d, want %d", oneHop, local+2)
	}
	if threeHop != local+6 {
		t.Errorf("three-hop RTT %d, want %d", threeHop, local+6)
	}
	if s.forwardedRqsts == 0 || s.forwardedRsps == 0 {
		t.Error("forwarding counters not incremented")
	}
}

func TestBadCUB(t *testing.T) {
	s := newChain(t, 2)
	err := s.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, CUB: 5})
	if !errors.Is(err, ErrBadCUB) {
		t.Errorf("Send(CUB=5): %v", err)
	}
	if _, err := s.Device(7); !errors.Is(err, ErrBadCUB) {
		t.Errorf("Device(7): %v", err)
	}
}

// TestRemoteBadLink pins that a remote send on a link the cubes do not
// have is refused as device 0 refuses it, rather than forwarded: such a
// request could never be delivered, and its overdue hop would keep every
// later ClockN and ClockUntilRecv from jumping.
func TestRemoteBadLink(t *testing.T) {
	s := newChain(t, 3)
	for _, c := range []struct{ link, cub int }{{9, 2}, {-1, 1}} {
		err := s.Send(c.link, &packet.Rqst{Cmd: hmccmd.RD16, CUB: uint8(c.cub)})
		if !errors.Is(err, device.ErrBadLink) {
			t.Errorf("Send(link %d, CUB %d): %v, want ErrBadLink", c.link, c.cub, err)
		}
	}
	if s.forwardedRqsts != 0 || len(s.pendingRqst) != 0 {
		t.Fatalf("refused sends forwarded: forwardedRqsts=%d, %d in transit", s.forwardedRqsts, len(s.pendingRqst))
	}
	if span := s.jumpSpan(1000); span != 1000 {
		t.Errorf("idle chain jumps %d of 1000 cycles", span)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(config.TwoGBDev(), WithDevices(0, KindChain)); !errors.Is(err, ErrBadCount) {
		t.Errorf("zero devices: %v", err)
	}
	if _, err := New(config.TwoGBDev(), WithDevices(9, KindChain)); !errors.Is(err, ErrBadCount) {
		t.Errorf("nine devices: %v", err)
	}
	if _, err := New(config.TwoGBDev(), WithDevices(2, KindSingle)); !errors.Is(err, ErrBadCount) {
		t.Errorf("single with 2: %v", err)
	}
	if _, err := New(config.Config{}, WithDevices(2, KindChain)); err == nil {
		t.Error("bad config accepted")
	}
}

func TestKindParsing(t *testing.T) {
	for _, k := range []Kind{KindSingle, KindChain, KindStar, KindRing} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("mesh"); err == nil {
		t.Error("ParseKind(mesh) succeeded")
	}
}

func TestInterleavedRemoteTraffic(t *testing.T) {
	// Concurrent requests to all cubes all complete, each on its own
	// data.
	s := newChain(t, 4)
	for cub := 0; cub < 4; cub++ {
		wr := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x40, TAG: uint16(cub), CUB: uint8(cub),
			Payload: []uint64{uint64(cub) + 100, 0}}
		if err := s.Send(0, wr); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for i := 0; i < 50 && got < 4; i++ {
		s.Clock()
		for {
			if _, ok := s.Recv(0); !ok {
				break
			}
			got++
		}
	}
	if got != 4 {
		t.Fatalf("%d responses", got)
	}
	for cub := 0; cub < 4; cub++ {
		v, _ := s.Devices()[cub].Store().ReadUint64(0x40)
		if v != uint64(cub)+100 {
			t.Errorf("cube %d memory %d", cub, v)
		}
	}
}

func TestRingTrafficBothDirections(t *testing.T) {
	// In a 6-cube ring, cube 5 is one hop from cube 0 (wrapping), cube 3
	// is three hops; round trips reflect that.
	s, err := New(config.TwoGBDev(), WithDevices(6, KindRing))
	if err != nil {
		t.Fatal(err)
	}
	_, local := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 1, CUB: 0})
	_, wrap := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 2, CUB: 5})
	_, far := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 3, CUB: 3})
	if wrap != local+2 {
		t.Errorf("wrap-around RTT %d, want %d", wrap, local+2)
	}
	if far != local+6 {
		t.Errorf("across-ring RTT %d, want %d", far, local+6)
	}
}

func TestStarRemoteToRemote(t *testing.T) {
	// Star topology: leaf cubes are two hops apart through the hub, so a
	// request to cube 2 pays 1 hop (host is attached to hub cube 0).
	s, err := New(config.TwoGBDev(), WithDevices(3, KindStar))
	if err != nil {
		t.Fatal(err)
	}
	_, local := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 1, CUB: 0})
	_, leaf := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 2, CUB: 2})
	if leaf != local+2 {
		t.Errorf("leaf RTT %d, want %d", leaf, local+2)
	}
}
