package sim

import (
	"errors"
	"testing"

	"repro/cmcops"
	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/power"
	"repro/internal/trace"
)

func newSim(t *testing.T, opts ...Option) *Simulator {
	t.Helper()
	s, err := New(config.FourLink4GB(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drive clocks the simulator until a response appears on link.
func drive(t *testing.T, s *Simulator, link int) *packet.Rsp {
	t.Helper()
	for i := 0; i < 200; i++ {
		s.Clock()
		if rsp, ok := s.Recv(link); ok {
			return rsp
		}
	}
	t.Fatal("no response")
	return nil
}

func TestReadWriteThroughContext(t *testing.T) {
	s := newSim(t)
	wr, err := Build(hmccmd.WR64, 0, 0x2000, 1, 0, []uint64{9, 8, 7, 6, 5, 4, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Cmd != hmccmd.WR64 {
		t.Fatalf("write cmd %v", wr.Cmd)
	}
	if err := s.Send(0, wr); err != nil {
		t.Fatal(err)
	}
	if rsp := drive(t, s, 0); rsp.Cmd != hmccmd.WrRS {
		t.Fatalf("write rsp %+v", rsp)
	}
	rd, err := Build(hmccmd.RD64, 0, 0x2000, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	rsp := drive(t, s, 0)
	if rsp.Payload[0] != 9 || rsp.Payload[7] != 2 {
		t.Fatalf("read payload %v", rsp.Payload)
	}
}

func TestPostedWriteBuilder(t *testing.T) {
	s := newSim(t)
	wr, err := Build(hmccmd.PWR16, 0, 0x40, 3, 1, []uint64{0xAB, 0})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Cmd != hmccmd.PWR16 {
		t.Fatalf("posted cmd %v", wr.Cmd)
	}
	if err := s.Send(1, wr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Clock()
	}
	d, _ := s.Device(0)
	if v, _ := d.Store().ReadUint64(0x40); v != 0xAB {
		t.Fatalf("posted write lost: %#x", v)
	}
}

func TestLoadCMCByNameAndRun(t *testing.T) {
	// Full hmc_load_cmc flow: registry name -> all devices -> packets.
	s := newSim(t)
	for _, name := range []string{"hmc_lock", "hmc_trylock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			t.Fatal(err)
		}
	}
	lock, err := Build(hmccmd.CMC125, 0, 0x40, 4, 0, []uint64{77, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, lock); err != nil {
		t.Fatal(err)
	}
	rsp := drive(t, s, 0)
	if rsp.Cmd != hmccmd.WrRS || rsp.Payload[0] != cmcops.RetSuccess {
		t.Fatalf("lock rsp %+v", rsp)
	}
	unlock, err := Build(hmccmd.CMC127, 0, 0x40, 5, 0, []uint64{77, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, unlock); err != nil {
		t.Fatal(err)
	}
	rsp = drive(t, s, 0)
	if rsp.Payload[0] != cmcops.RetSuccess {
		t.Fatalf("unlock rsp %+v", rsp)
	}
}

func TestLoadCMCUnknownName(t *testing.T) {
	s := newSim(t)
	if err := s.LoadCMC("nonexistent_op"); !errors.Is(err, cmc.ErrUnknownOp) {
		t.Errorf("LoadCMC(unknown): %v", err)
	}
}

func TestLoadCMCOpDoubleLoad(t *testing.T) {
	s := newSim(t)
	if err := s.LoadCMCOp(cmcops.MutexOps()[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMCOp(cmcops.MutexOps()[0]); !errors.Is(err, cmc.ErrSlotBusy) {
		t.Errorf("double load: %v", err)
	}
}

func TestMultiDeviceContext(t *testing.T) {
	s, err := New(config.TwoGBDev(), WithDevices(3, KindChain))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMC("hmc_lock"); err != nil {
		t.Fatal(err)
	}
	// Lock on the remote cube 2.
	lock, _ := Build(hmccmd.CMC125, 2, 0x40, 6, 0, []uint64{5, 0})
	if err := s.Send(0, lock); err != nil {
		t.Fatal(err)
	}
	rsp := drive(t, s, 0)
	if rsp.CUB != 2 || rsp.Payload[0] != cmcops.RetSuccess {
		t.Fatalf("remote lock rsp %+v", rsp)
	}
	d2, _ := s.Device(2)
	blk, _ := d2.Store().ReadBlock(0x40)
	if blk.Lo != 1 || blk.Hi != 5 {
		t.Fatalf("remote lock state %+v", blk)
	}
}

func TestPowerIntegration(t *testing.T) {
	s := newSim(t, WithPowerModel(power.New(power.DefaultParams())))
	if s.Power() == nil {
		t.Fatal("power model missing")
	}
	rd, _ := Build(hmccmd.RD64, 0, 0, 7, 0, nil)
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	drive(t, s, 0)
	pm := s.Power()
	if pm.Ops != 1 {
		t.Errorf("charged %d ops", pm.Ops)
	}
	if pm.DRAM == 0 || pm.Static() == 0 || pm.TotalPJ() == 0 {
		t.Errorf("power breakdown %v", pm)
	}
	if pm.AvgPowerWatts(s.Cycle(), 1.25) <= 0 {
		t.Error("no average power")
	}
}

func TestJTAGThroughContext(t *testing.T) {
	s := newSim(t)
	p, err := s.JTAG(0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadReg(device.RegFEAT)
	if err != nil {
		t.Fatal(err)
	}
	capGB, _, _, links := device.DecodeFEAT(v)
	if capGB != 4 || links != 4 {
		t.Errorf("FEAT = %#x", v)
	}
	if _, err := s.JTAG(5); err == nil {
		t.Error("JTAG on missing cube succeeded")
	}
}

func TestTracerThroughContext(t *testing.T) {
	rec := trace.NewRecorder(trace.LevelRqst | trace.LevelLatency)
	s := newSim(t, WithTracer(rec))
	rd, _ := Build(hmccmd.RD16, 0, 0, 8, 0, nil)
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	drive(t, s, 0)
	if len(rec.OfKind(trace.LevelRqst)) != 1 {
		t.Errorf("rqst events: %+v", rec.Events())
	}
	lats := rec.OfKind(trace.LevelLatency)
	if len(lats) != 1 || lats[0].Value != 3 {
		t.Errorf("latency events: %+v", lats)
	}
}

// TestBuildersAllSizes builds every architected read and write size,
// posted and not, with the payload its registered request length asks
// for: none for a read, one word per eight data bytes for a write.
func TestBuildersAllSizes(t *testing.T) {
	for _, cmd := range hmccmd.Architected() {
		info := cmd.InfoRef()
		words := int(info.DataBytes) / 8
		switch info.Class {
		case hmccmd.ClassRead:
			words = 0
		case hmccmd.ClassWrite, hmccmd.ClassPostedWrite:
		default:
			continue
		}
		r, err := Build(cmd, 0, 0, 0, 0, make([]uint64, words))
		if err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
		if r.Cmd != cmd || len(r.Payload) != words || r.Cmd.Posted() != (info.Class == hmccmd.ClassPostedWrite) {
			t.Errorf("%v built %v with %d payload words", cmd, r.Cmd, len(r.Payload))
		}
	}
}

func TestAccessors(t *testing.T) {
	s := newSim(t)
	if s.Config().Links != 4 || s.Links() != 4 {
		t.Error("config accessors wrong")
	}
	if len(s.Devices()) != 1 {
		t.Errorf("devices = %d", len(s.Devices()))
	}
	if s.Power() != nil {
		t.Error("power enabled by default")
	}
}

func TestWithPowerModel(t *testing.T) {
	pm := power.New(power.DefaultParams())
	s, err := New(config.FourLink4GB(), WithPowerModel(pm))
	if err != nil {
		t.Fatal(err)
	}
	if s.Power() != pm {
		t.Error("caller-owned power model not installed")
	}
	rd, _ := Build(hmccmd.RD16, 0, 0, 1, 0, nil)
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	drive(t, s, 0)
	if pm.TotalPJ() <= 0 {
		t.Error("shared model accumulated nothing")
	}
}
