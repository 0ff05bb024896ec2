package hmcsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cmc/script"
	"repro/internal/config"
	"repro/internal/hmccmd"
)

// TestPublicAPIQuickstart exercises the documented facade flow end to
// end: construct, load a CMC op, send, clock, receive.
func TestPublicAPIQuickstart(t *testing.T) {
	s, err := New(FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMC("hmc_lock"); err != nil {
		t.Fatal(err)
	}
	r, err := Build(hmccmd.CMC125, 0, 0x40, 1, 0, []uint64{42, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Clock()
		if rsp, ok := s.Recv(0); ok {
			if rsp.Payload[0] != 1 {
				t.Fatalf("lock returned %d", rsp.Payload[0])
			}
			return
		}
	}
	t.Fatal("no response")
}

// TestScriptOpThroughFacade loads a .cmc program through the facade and
// runs it through a full simulation.
func TestScriptOpThroughFacade(t *testing.T) {
	prog, err := script.Parse(`
op facade_fetchadd
rqst CMC85
rqst_len 2
rsp_len 2
rsp_cmd RD_RS

exec:
    load.lo      # old value
    dup
    ret 0        # return it
    arg 0
    add
    store.lo     # mem += arg
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMCOp(prog); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Device(0)
	if err := d.Store().WriteUint64(0x100, 10); err != nil {
		t.Fatal(err)
	}
	r, err := Build(hmccmd.CMC85, 0, 0x100, 2, 0, []uint64{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Clock()
		if rsp, ok := s.Recv(0); ok {
			if rsp.Payload[0] != 10 {
				t.Fatalf("fetchadd returned %d, want old value 10", rsp.Payload[0])
			}
			if v, _ := d.Store().ReadUint64(0x100); v != 15 {
				t.Fatalf("memory %d, want 15", v)
			}
			return
		}
	}
	t.Fatal("no response")
}

func TestCMCNamesIncludeShippedOps(t *testing.T) {
	names := strings.Join(CMCNames(), ",")
	for _, want := range []string{"hmc_lock", "hmc_trylock", "hmc_unlock", "hmc_popcount16", "hmc_visit"} {
		if !strings.Contains(names, want) {
			t.Errorf("registry missing %s: %s", want, names)
		}
	}
}

func TestTracerFacade(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf, TraceCMC|TraceLatency)
	s, err := New(FourLink4GB(), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCMC("hmc_popcount16"); err != nil {
		t.Fatal(err)
	}
	r, err := Build(hmccmd.CMC69, 0, 0, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Clock()
		if _, ok := s.Recv(0); ok {
			break
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hmc_popcount16") {
		t.Errorf("trace missing op name: %s", buf.String())
	}
}

func TestLevelParseFacade(t *testing.T) {
	l, err := ParseTraceLevel("cmc+latency")
	if err != nil || l != TraceCMC|TraceLatency {
		t.Errorf("ParseTraceLevel = %v, %v", l, err)
	}
}

func TestMultiCubeFacade(t *testing.T) {
	s, err := New(config.TwoGBDev(), WithDevices(2, TopoChain))
	if err != nil {
		t.Fatal(err)
	}
	wr, err := Build(hmccmd.WR16, 1, 0x40, 4, 0, []uint64{9, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, wr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		s.Clock()
		if rsp, ok := s.Recv(0); ok {
			if rsp.CUB != 1 {
				t.Fatalf("rsp CUB %d", rsp.CUB)
			}
			return
		}
	}
	t.Fatal("no remote response")
}

func TestPowerFacade(t *testing.T) {
	s, err := New(FourLink4GB(), WithPowerModel(NewPowerModel(DefaultPowerParams())))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Build(hmccmd.RD64, 0, 0, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Clock()
		if _, ok := s.Recv(0); ok {
			break
		}
	}
	if s.Power().TotalPJ() <= 0 {
		t.Error("no energy accumulated")
	}
}
