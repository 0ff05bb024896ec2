package workload

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestMutexTwoThreads(t *testing.T) {
	run, err := RunMutex(config.FourLink4GB(), 2, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	// The winner completes lock+unlock in the 6-cycle floor (Table VI
	// minimum); the loser needs at least one trylock round.
	if run.Min != 6 {
		t.Errorf("min = %d, want 6", run.Min)
	}
	if run.Max <= run.Min {
		t.Errorf("max = %d not above min", run.Max)
	}
	if run.Trylocks == 0 {
		t.Error("loser never spun")
	}
}

// TestMutexLockOnLastCube pins where a multi-cube session places the
// lock block: on the last cube, whose report counts every lock, trylock
// and unlock request, while the host cube and the cubes between execute
// none. The hops each way lift the uncongested minimum above the
// single cube's six cycles.
func TestMutexLockOnLastCube(t *testing.T) {
	const threads = 8
	for _, kind := range []sim.Kind{sim.KindChain, sim.KindStar, sim.KindRing} {
		ss, err := NewSession(config.FourLink4GB(), sim.WithDevices(4, kind))
		if err != nil {
			t.Fatal(err)
		}
		run, err := ss.Mutex(threads, 0x40)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if run.Min <= 6 {
			t.Errorf("%v: min = %d, want above the single cube's 6", kind, run.Min)
		}
		rqsts := 2*threads + run.Trylocks // a lock and an unlock per thread
		for i, d := range ss.Sim().Devices() {
			want := uint64(0)
			if i == 3 {
				want = rqsts
			}
			if got := d.BuildReport().TotalOps(); got != want {
				t.Errorf("%v: cube %d executed %d requests, want %d", kind, i, got, want)
			}
		}
	}
}

func TestMutexMinIsSixAcrossSweep(t *testing.T) {
	// Table VI: Min Cycle Count = 6 for both configurations.
	for _, cfg := range []config.Config{config.FourLink4GB(), config.EightLink8GB()} {
		for _, n := range []int{2, 25, 100} {
			run, err := RunMutex(cfg, n, 0x40)
			if err != nil {
				t.Fatalf("%v/%d: %v", cfg, n, err)
			}
			if run.Min != 6 {
				t.Errorf("%v threads=%d: min = %d, want 6", cfg, n, run.Min)
			}
		}
	}
}

func TestMutexIdenticalConfigsThroughFifty(t *testing.T) {
	// Paper §V-C: "minimum, maximum and average HMC-Sim cycle counts are
	// actually identical between both the 4Link and 8Link device
	// configurations for thread counts from two to fifty".
	for _, n := range []int{2, 10, 25, 40, 50} {
		four, err := RunMutex(config.FourLink4GB(), n, 0x40)
		if err != nil {
			t.Fatal(err)
		}
		eight, err := RunMutex(config.EightLink8GB(), n, 0x40)
		if err != nil {
			t.Fatal(err)
		}
		if four.Min != eight.Min || four.Max != eight.Max || four.Avg != eight.Avg {
			t.Errorf("threads=%d: 4Link (%d,%d,%.2f) != 8Link (%d,%d,%.2f)",
				n, four.Min, four.Max, four.Avg, eight.Min, eight.Max, eight.Avg)
		}
	}
}

func TestMutexDivergenceBeyondFifty(t *testing.T) {
	// Paper §V-C: beyond fifty threads the configurations perturb, with
	// the 4Link device slightly worse (it "becomes overwhelmed with
	// requests faster").
	diverged := false
	for _, n := range []int{60, 80, 100} {
		four, err := RunMutex(config.FourLink4GB(), n, 0x40)
		if err != nil {
			t.Fatal(err)
		}
		eight, err := RunMutex(config.EightLink8GB(), n, 0x40)
		if err != nil {
			t.Fatal(err)
		}
		if four.Avg != eight.Avg || four.Max != eight.Max {
			diverged = true
		}
		if four.Avg < eight.Avg {
			t.Errorf("threads=%d: 4Link avg %.2f better than 8Link %.2f", n, four.Avg, eight.Avg)
		}
		if four.Max < eight.Max {
			t.Errorf("threads=%d: 4Link max %d better than 8Link %d", n, four.Max, eight.Max)
		}
	}
	if !diverged {
		t.Error("no divergence observed beyond fifty threads")
	}
}

func TestMutexScalesRoughlyLinearly(t *testing.T) {
	// One handoff per contending thread: max completion grows linearly
	// with thread count (the paper's Figure 6 trend).
	r25, err := RunMutex(config.FourLink4GB(), 25, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	r100, err := RunMutex(config.FourLink4GB(), 100, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r100.Max) / float64(r25.Max)
	if ratio < 3.0 || ratio > 5.5 {
		t.Errorf("max grew %.2fx for 4x threads; want roughly linear", ratio)
	}
	// And the average tracks the max at roughly half (threads finish
	// uniformly across the run).
	if r100.Avg < float64(r100.Max)*0.3 || r100.Avg > float64(r100.Max)*0.7 {
		t.Errorf("avg %.2f not near half of max %d", r100.Avg, r100.Max)
	}
}

func TestMutexDeterminism(t *testing.T) {
	a, err := RunMutex(config.FourLink4GB(), 33, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMutex(config.FourLink4GB(), 33, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeated runs differ: %+v vs %+v", a, b)
	}
}

func TestMutexTracesCMCOps(t *testing.T) {
	rec := trace.NewRecorder(trace.LevelCMC)
	if _, err := RunMutex(config.FourLink4GB(), 4, 0x40, sim.WithTracer(rec)); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range rec.OfKind(trace.LevelCMC) {
		names[e.Cmd]++
	}
	// Trace records carry the ops' registered names (paper §IV-A).
	if names["hmc_lock"] != 4 {
		t.Errorf("hmc_lock traced %d times, want 4", names["hmc_lock"])
	}
	if names["hmc_unlock"] != 4 {
		t.Errorf("hmc_unlock traced %d times, want 4", names["hmc_unlock"])
	}
	if names["hmc_trylock"] == 0 {
		t.Error("no hmc_trylock traces")
	}
}

func TestMutexSweep(t *testing.T) {
	res, err := MutexSweep(config.FourLink4GB(), 2, 6, 0x40, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 5 {
		t.Fatalf("%d runs", len(res.Runs))
	}
	minC, maxC, maxAvg := res.TableVI()
	if minC != 6 {
		t.Errorf("sweep min = %d", minC)
	}
	if maxC < 9 || maxAvg <= 6 {
		t.Errorf("sweep max=%d maxAvg=%.2f", maxC, maxAvg)
	}
	// Monotone-ish growth of max with threads.
	for i := 1; i < len(res.Runs); i++ {
		if res.Runs[i].Max < res.Runs[i-1].Max {
			t.Errorf("max not monotone at %d threads", res.Runs[i].Threads)
		}
	}
}

func TestMutexLockEndsFree(t *testing.T) {
	// RunMutex itself asserts the post-condition; this exercises it.
	if _, err := RunMutex(config.TwoGBDev(), 10, 0x80); err != nil {
		t.Fatal(err)
	}
}
