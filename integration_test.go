package hmcsim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cmc/script"
	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestIntegration_SeventyConcurrentCMCOps loads an operation into every
// one of the 70 CMC slots of a live simulator — the paper's §I capacity
// claim — generating the operations as .cmc scripts, and then executes
// one packet against each slot.
func TestIntegration_SeventyConcurrentCMCOps(t *testing.T) {
	s, err := New(FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	slots := hmccmd.CMCSlots()
	if len(slots) != 70 {
		t.Fatalf("%d slots", len(slots))
	}
	for i, slot := range slots {
		src := fmt.Sprintf(`
op slot_%d
rqst CMC%d
rqst_len 1
rsp_len 2
rsp_cmd RD_RS

exec:
    push %d
    ret 0
`, slot.Code(), slot.Code(), i+1000)
		prog, err := script.Parse(src)
		if err != nil {
			t.Fatalf("slot %v: %v", slot, err)
		}
		if err := s.LoadCMCOp(prog); err != nil {
			t.Fatalf("slot %v: %v", slot, err)
		}
	}
	d, _ := s.Device(0)
	if got := d.CMC().Count(); got != 70 {
		t.Fatalf("table holds %d ops", got)
	}
	// Execute one packet per slot; each op returns its unique marker.
	for i, slot := range slots {
		r, err := Build(slot, 0, 0x100, uint16(i), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(i%4, r); err != nil {
			t.Fatal(err)
		}
		for {
			s.Clock()
			if rsp, ok := s.Recv(i % 4); ok {
				if rsp.Payload[0] != uint64(i+1000) {
					t.Fatalf("slot %v returned %d, want %d", slot, rsp.Payload[0], i+1000)
				}
				break
			}
		}
	}
}

// TestIntegration_TraceFileRoundTrip drives a workload with a JSONL
// tracer and runs the trace through the analysis pipeline the hmc-trace
// tool uses.
func TestIntegration_TraceFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf, TraceCMC|TraceLatency|TraceRqst)
	if _, err := RunMutex(FourLink4GB(), 8, 0x40, WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(events)
	if a.Events == 0 {
		t.Fatal("empty trace")
	}
	// 8 locks + 8 unlocks plus spins, all under registered names.
	if a.CMCByName["hmc_lock"] != 8 || a.CMCByName["hmc_unlock"] != 8 {
		t.Errorf("CMC breakdown: %v", a.CMCByName)
	}
	if a.CMCByName["hmc_trylock"] == 0 {
		t.Error("no trylock traffic in trace")
	}
	// The lock hot spot: one vault serves everything.
	if len(a.ByVault) != 1 {
		t.Errorf("hot-spot run touched %d vaults", len(a.ByVault))
	}
	if a.Latency.Min() != 3 {
		t.Errorf("min latency %d, want 3", a.Latency.Min())
	}
}

// TestIntegration_RemoteCubeMutex runs the full mutex protocol against a
// lock block on a remote chained cube.
func TestIntegration_RemoteCubeMutex(t *testing.T) {
	s, err := New(config.TwoGBDev(), WithDevices(3, TopoChain))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hmc_lock", "hmc_unlock"} {
		if err := s.LoadCMC(name); err != nil {
			t.Fatal(err)
		}
	}
	do := func(cmd RqstCmd, tid uint64) uint64 {
		r, err := Build(cmd, 2, 0x40, 1, 0, []uint64{tid, 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		for {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				return rsp.Payload[0]
			}
		}
	}
	if got := do(hmccmd.CMC125, 9); got != 1 {
		t.Fatalf("remote lock returned %d", got)
	}
	if got := do(hmccmd.CMC125, 10); got != 0 {
		t.Fatalf("contended remote lock returned %d", got)
	}
	if got := do(hmccmd.CMC127, 9); got != 1 {
		t.Fatalf("remote unlock returned %d", got)
	}
	// The state lives on cube 2 only.
	d2, _ := s.Device(2)
	blk, _ := d2.Store().ReadBlock(0x40)
	if blk.Hi != 9 || blk.Lo != 0 {
		t.Fatalf("remote lock state %+v", blk)
	}
	d0, _ := s.Device(0)
	if blk, _ := d0.Store().ReadBlock(0x40); blk.Lo != 0 && blk.Hi != 0 {
		t.Fatal("lock state leaked onto cube 0")
	}
}

// TestIntegration_MutexUnderLinkFaults runs the full contended mutex
// evaluation with CRC-fault injection on: the retry protocol must
// preserve correctness, only stretching completion times.
func TestIntegration_MutexUnderLinkFaults(t *testing.T) {
	clean, err := RunMutex(FourLink4GB(), 16, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FourLink4GB()
	cfg.LinkFaultPeriod = 7
	faulty, err := RunMutex(cfg, 16, 0x40) // RunMutex asserts the lock ends free
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Max <= clean.Max {
		t.Errorf("faulted max %d not above clean max %d", faulty.Max, clean.Max)
	}
}

// TestIntegration_PowerAcrossWorkloads accumulates one power model across
// two different workload runs.
func TestIntegration_PowerAcrossWorkloads(t *testing.T) {
	pm := NewPowerModel(DefaultPowerParams())
	if _, err := RunStream(FourLink4GB(), 4, 32, 1.25, WithPowerModel(pm)); err != nil {
		t.Fatal(err)
	}
	afterStream := pm.TotalPJ()
	if afterStream <= 0 {
		t.Fatal("stream accumulated no energy")
	}
	if _, err := RunGUPS(FourLink4GB(), GUPSAtomic, 4, 256, 200, WithPowerModel(pm)); err != nil {
		t.Fatal(err)
	}
	if pm.TotalPJ() <= afterStream {
		t.Error("gups run accumulated no additional energy")
	}
	if pm.ALU == 0 {
		t.Error("atomic workload charged no ALU energy")
	}
}

// TestIntegration_MixedAgentKinds drives mutex and ticket agents in the
// same simulation: two independent lock blocks, one engine.
func TestIntegration_MixedAgentKinds(t *testing.T) {
	s, err := New(FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hmc_lock", "hmc_trylock", "hmc_unlock", "hmc_ticket", "hmc_ticket_next"} {
		if err := s.LoadCMC(name); err != nil {
			t.Fatal(err)
		}
	}
	var agents []workload.Agent
	for i := 0; i < 6; i++ {
		agents = append(agents, &workload.MutexAgent{TID: uint64(i) + 1, Addr: 0x40})
	}
	for i := 0; i < 6; i++ {
		agents = append(agents, &workload.TicketAgent{Addr: 0x80})
	}
	res, err := workload.Run(s, agents, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.N() != 12 {
		t.Fatalf("%d agents finished", res.Summary.N())
	}
	// Both protocols ended clean.
	d, _ := s.Device(0)
	spin, _ := d.Store().ReadBlock(0x40)
	if spin.Lo != 0 {
		t.Errorf("spin lock left held: %+v", spin)
	}
	tick, _ := d.Store().ReadBlock(0x80)
	if tick.Lo != 6 || tick.Hi != 6 {
		t.Errorf("ticket state %+v, want 6/6", tick)
	}
}
