package workload

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
)

func TestParseTrace(t *testing.T) {
	src := `
# a comment
RD 0x1000 64
WR 0x2000 16   # trailing comment
INC8 0x40
CASEQ8 0x80
`
	ops, err := ParseTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 4 {
		t.Fatalf("%d ops", len(ops))
	}
	if ops[0].Cmd != hmccmd.RD64 || ops[0].Addr != 0x1000 {
		t.Errorf("op 0: %+v", ops[0])
	}
	if ops[1].Cmd != hmccmd.WR16 || ops[1].Addr != 0x2000 {
		t.Errorf("op 1: %+v", ops[1])
	}
	if ops[2].Cmd != hmccmd.INC8 || ops[2].Addr != 0x40 {
		t.Errorf("op 2: %+v", ops[2])
	}
	if ops[3].Cmd != hmccmd.CASEQ8 {
		t.Errorf("op 3: %+v", ops[3])
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, src := range []string{
		"RD 0x10",      // missing bytes
		"RD zz 64",     // bad addr
		"RD 0x10 many", // bad size
		"BOGUS 0x10",   // unknown mnemonic
		"WR64 0x10",    // architected but not an atomic mnemonic form
		"INC8",         // missing addr
		"INC8 0xZZ",    // bad addr
		"RD 0x40 24",   // no read of this size
		"WR 0x40 4096", // beyond the largest write
		"RD 0x40 0",    // no data
		"RD 0x40 -16",  // negative size
		"WR 0x40 0",    // no data
	} {
		if _, err := ParseTrace(strings.NewReader(src)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	ops := []ReplayOp{
		{Cmd: hmccmd.RD64, Addr: 0x100},
		{Cmd: hmccmd.WR32, Addr: 0x200},
		{Cmd: hmccmd.INC8, Addr: 0x40},
	}
	back, err := ParseTrace(strings.NewReader("RD 0x100 64\nWR 0x200 32\nINC8 0x40\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("%d ops back", len(back))
	}
	for i := range ops {
		if back[i] != ops[i] {
			t.Errorf("op %d: %+v != %+v", i, back[i], ops[i])
		}
	}
}

func TestGenerators(t *testing.T) {
	stride := GenerateStrideTrace(0x1000, 8)
	if len(stride) != 8 {
		t.Fatalf("%d stride ops", len(stride))
	}
	for i, op := range stride {
		if op.Addr != 0x1000+uint64(i)*64 || op.Cmd != hmccmd.RD64 {
			t.Errorf("stride op %d: %+v", i, op)
		}
	}
	r1 := GenerateRandomTrace(0, 1<<20, 100, 7)
	r2 := GenerateRandomTrace(0, 1<<20, 100, 7)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same seed produced different traces")
		}
		if r1[i].Addr >= 1<<20 || r1[i].Addr%16 != 0 {
			t.Errorf("op %d addr %#x out of range/misaligned", i, r1[i].Addr)
		}
	}
	r3 := GenerateRandomTrace(0, 1<<20, 100, 8)
	same := 0
	for i := range r1 {
		if r1[i] == r3[i] {
			same++
		}
	}
	if same == len(r1) {
		t.Error("different seeds produced identical traces")
	}
}

func TestReplayStrideVsRandom(t *testing.T) {
	// The original HMC-Sim result: stride-1 spreads across vaults and
	// sustains higher throughput than a hot-spot pattern. Bank timing is
	// enabled so same-bank requests actually serialize (the paper's
	// default abstract model has no bank timing and the difference only
	// shows at much higher concurrency).
	cfg := config.FourLink4GB()
	cfg.BankLatencyCycles = 1
	stride, err := RunReplay(cfg, 8, GenerateStrideTrace(0, 512))
	if err != nil {
		t.Fatal(err)
	}
	if stride.Ops != 512 || stride.Latency.N() != 512 {
		t.Fatalf("stride result %+v", stride)
	}
	// All to ONE vault: worst case.
	hot := make([]ReplayOp, 512)
	for i := range hot {
		hot[i] = ReplayOp{Cmd: hmccmd.RD16, Addr: 0}
	}
	hotRes, err := RunReplay(cfg, 8, hot)
	if err != nil {
		t.Fatal(err)
	}
	if stride.OpsPerCycle <= hotRes.OpsPerCycle {
		t.Errorf("stride %.3f ops/cycle not above hot-spot %.3f",
			stride.OpsPerCycle, hotRes.OpsPerCycle)
	}
}

func TestReplayAtomics(t *testing.T) {
	ops := []ReplayOp{
		{Cmd: hmccmd.INC8, Addr: 0x40},
		{Cmd: hmccmd.INC8, Addr: 0x40},
		{Cmd: hmccmd.INC8, Addr: 0x40},
	}
	cfg := config.FourLink4GB()
	res, err := RunReplay(cfg, 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Min() != 3 {
		t.Errorf("latency min %d", res.Latency.Min())
	}
	// Memory state cannot be read back from here (fresh sim is internal),
	// but determinism can: repeat and compare.
	res2, err := RunReplay(cfg, 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res2.Cycles {
		t.Error("replay not deterministic")
	}
}

func TestRunReplayValidation(t *testing.T) {
	if _, err := RunReplay(config.FourLink4GB(), 0, GenerateStrideTrace(0, 4)); err == nil {
		t.Error("zero threads accepted")
	}
}

// probeBandwidth is the bandwidth probe: a stride trace of
// threads*blocksPerThread 64-byte reads replayed over threads × width
// blocking agents, so each of threads host threads keeps up to width
// reads in flight. It returns the achieved read bytes per cycle.
func probeBandwidth(t *testing.T, threads, width, blocksPerThread int) float64 {
	t.Helper()
	ss, err := NewSession(config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	r, err := ss.Replay(threads*width, GenerateStrideTrace(0, threads*blocksPerThread))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != threads*blocksPerThread || r.Latency.N() != uint64(r.Ops) {
		t.Fatalf("probe result %+v", r)
	}
	return float64(r.Ops*64) / float64(r.Cycles)
}

func TestBandwidthProbeCompletes(t *testing.T) {
	if bw := probeBandwidth(t, 4, 4, 64); bw <= 0 {
		t.Errorf("bandwidth %v", bw)
	}
}

func TestPipelineWidthScalesBandwidth(t *testing.T) {
	// A deeper pipeline hides latency: width 8 must beat width 1
	// substantially for the same thread count.
	w1 := probeBandwidth(t, 4, 1, 128)
	w8 := probeBandwidth(t, 4, 8, 128)
	if w8 < 2*w1 {
		t.Errorf("width 8 (%.1f B/c) not >2x width 1 (%.1f B/c)", w8, w1)
	}
}

func TestBandwidthSaturates(t *testing.T) {
	// Beyond the link serialization limit, more outstanding requests stop
	// helping: the curve flattens.
	var prev float64
	grewAt32 := false
	for _, w := range []int{1, 4, 32, 64} {
		bw := probeBandwidth(t, 4, w, 256)
		if w == 32 && bw > prev {
			grewAt32 = true
		}
		if w == 64 {
			// Saturated: within 10% of width 32.
			if bw > prev*1.10 {
				t.Errorf("width 64 (%.1f) still >10%% above width 32 (%.1f): no saturation", bw, prev)
			}
		}
		prev = bw
	}
	if !grewAt32 {
		t.Error("bandwidth did not grow up to width 32")
	}
}

func TestPipelinedDeterminism(t *testing.T) {
	if a, b := probeBandwidth(t, 4, 8, 64), probeBandwidth(t, 4, 8, 64); a != b {
		t.Errorf("runs differ: %v vs %v B/c", a, b)
	}
}

func TestPipelinedManyAgentsShareTagPool(t *testing.T) {
	// 100 threads x width 16 = 1600 blocking agents, each holding one of
	// the 2048 request tags; everything completes.
	probeBandwidth(t, 100, 16, 32)
}
