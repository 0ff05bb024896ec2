package workload

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestStreamTriadCorrectAndScales(t *testing.T) {
	// Single thread.
	r1, err := RunStream(config.FourLink4GB(), 1, 64, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elements != 64*8 {
		t.Errorf("elements = %d", r1.Elements)
	}
	// More threads exploit the vault parallelism of the stride-1 pattern:
	// throughput must improve substantially.
	r8, err := RunStream(config.FourLink4GB(), 8, 64, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Cycles >= r1.Cycles {
		t.Errorf("8 threads (%d cycles) not faster than 1 (%d)", r8.Cycles, r1.Cycles)
	}
	if r8.BytesPerCycle < 2*r1.BytesPerCycle {
		t.Errorf("8-thread throughput %.2f B/c vs 1-thread %.2f B/c; want >2x",
			r8.BytesPerCycle, r1.BytesPerCycle)
	}
	if r8.BandwidthGBs <= 0 || r8.Flits == 0 {
		t.Errorf("result %+v", r8)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, err := RunStream(config.TwoGBDev(), 4, 32, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStream(config.TwoGBDev(), 4, 32, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestGUPSAtomicVerifies(t *testing.T) {
	// RunGUPS internally replays the update stream and verifies memory.
	r, err := RunGUPS(config.FourLink4GB(), GUPSAtomic, 8, 1024, 800)
	if err != nil {
		t.Fatal(err)
	}
	if r.Updates != 800 {
		t.Errorf("updates = %d", r.Updates)
	}
	if r.UpdatesPerKCycle <= 0 {
		t.Errorf("throughput %v", r.UpdatesPerKCycle)
	}
}

func TestGUPSAtomicBeatsBaseline(t *testing.T) {
	// The in-situ atomic halves the round trips and reduces FLIT traffic
	// (the Table II argument on a real kernel): the AMO run must finish
	// faster and move fewer FLITs.
	base, err := RunGUPS(config.FourLink4GB(), GUPSBaseline, 8, 1024, 800)
	if err != nil {
		t.Fatal(err)
	}
	amo, err := RunGUPS(config.FourLink4GB(), GUPSAtomic, 8, 1024, 800)
	if err != nil {
		t.Fatal(err)
	}
	if amo.Cycles >= base.Cycles {
		t.Errorf("AMO %d cycles not faster than baseline %d", amo.Cycles, base.Cycles)
	}
	if amo.Flits >= base.Flits {
		t.Errorf("AMO %d flits not below baseline %d", amo.Flits, base.Flits)
	}
	// Two round trips vs one: roughly 2x time saving.
	speedup := float64(base.Cycles) / float64(amo.Cycles)
	if speedup < 1.5 {
		t.Errorf("AMO speedup %.2fx, want >= 1.5x", speedup)
	}
}

func TestGUPSModeString(t *testing.T) {
	if GUPSAtomic.String() != "amo" || GUPSBaseline.String() != "baseline" {
		t.Error("mode names wrong")
	}
	if BFSCMC.String() != "cmc" || BFSBaseline.String() != "baseline" {
		t.Error("bfs mode names wrong")
	}
}

func TestBFSCMCVisitsAll(t *testing.T) {
	r, err := RunBFS(config.FourLink4GB(), BFSCMC, 8, 500, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Visited != 500 {
		t.Errorf("visited %d of 500", r.Visited)
	}
	if r.DoubleClaims != 0 {
		t.Errorf("atomic visit double-claimed %d", r.DoubleClaims)
	}
	if r.Probes < uint64(r.Edges)/2 {
		t.Errorf("probes %d for %d edges", r.Probes, r.Edges)
	}
}

func TestBFSBaselineVisitsAll(t *testing.T) {
	r, err := RunBFS(config.FourLink4GB(), BFSBaseline, 8, 500, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Visited != 500 {
		t.Errorf("visited %d of 500", r.Visited)
	}
}

func TestBFSCMCBeatsBaseline(t *testing.T) {
	// The offloading result (paper §II [10]): one CMC probe replaces the
	// read + conditional write. The wins are round trips (claims cost one
	// trip instead of two) and atomicity (no lost or duplicated claims);
	// the baseline additionally risks double claims under concurrency.
	base, err := RunBFS(config.FourLink4GB(), BFSBaseline, 8, 500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	cmcRun, err := RunBFS(config.FourLink4GB(), BFSCMC, 8, 500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cmcRun.Cycles >= base.Cycles {
		t.Errorf("CMC %d cycles not faster than baseline %d", cmcRun.Cycles, base.Cycles)
	}
	if cmcRun.DoubleClaims != 0 {
		t.Errorf("CMC double claims %d", cmcRun.DoubleClaims)
	}
}

func TestRandomGraphConnected(t *testing.T) {
	g := NewRandomGraph(200, 3, 1)
	if g.Vertices() != 200 {
		t.Fatalf("vertices = %d", g.Vertices())
	}
	// Host-side BFS reachability check.
	seen := make([]bool, 200)
	queue := []uint32{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, n := range g.Adj[v] {
			if !seen[n] {
				seen[n] = true
				count++
				queue = append(queue, n)
			}
		}
	}
	if count != 200 {
		t.Errorf("graph not connected: reached %d", count)
	}
	// Determinism.
	g2 := NewRandomGraph(200, 3, 1)
	if g2.Edges() != g.Edges() {
		t.Error("same seed produced different graphs")
	}
}

// spinForever is an agent that reads the same address endlessly.
type spinForever struct{}

func (spinForever) Next(cycle uint64) *packet.Rqst {
	r, err := sim.Build(hmccmd.RD16, 0, 0, 0, 0, nil)
	if err != nil {
		panic(err)
	}
	return r
}
func (spinForever) Complete(rsp *packet.Rsp, cycle uint64) error { return nil }
func (spinForever) Done() bool                                   { return false }

func TestRunEngineTimeout(t *testing.T) {
	s, err := sim.New(config.TwoGBDev())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(s, []Agent{spinForever{}}, 50)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("Run with endless agent: %v", err)
	}
}

func TestRunTooManyAgents(t *testing.T) {
	s, err := sim.New(config.TwoGBDev())
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]Agent, packet.MaxTag+1)
	for i := range agents {
		agents[i] = spinForever{}
	}
	if _, err := Run(s, agents, 10); !errors.Is(err, ErrTooManyAgents) {
		t.Errorf("oversized agent set: %v", err)
	}
}

func TestRunAlreadyDoneAgents(t *testing.T) {
	s, err := sim.New(config.TwoGBDev())
	if err != nil {
		t.Fatal(err)
	}
	done := &MutexAgent{}
	done.state = mutexDone
	res, err := Run(s, []Agent{done}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Errorf("empty run took %d cycles", res.Cycles)
	}
}

func TestStreamMoreThreadsThanBlocks(t *testing.T) {
	// Agents beyond the block count have empty chunks and finish
	// immediately; the run still verifies.
	r, err := RunStream(config.TwoGBDev(), 16, 4, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if r.Elements != 32 {
		t.Errorf("elements = %d", r.Elements)
	}
}
