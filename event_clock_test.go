package hmcsim

import (
	"fmt"
	"strings"
	"testing"
)

// The event-driven cycle scheduler must be invisible in every result: a
// run that fast-forwards quiescent spans and skips idle cubes has to
// reproduce the per-cycle reference engine bit for bit. These tests pin
// that at the workload level (all six workloads on both paper
// configurations) and at the topology level (a fault-injected multi-cube
// chain whose link-down windows and drop timeouts gate every jump).

// runWorkloadEngine runs one workload under the chosen engine mode and
// renders everything observable into one comparable string.
func runWorkloadEngine(t *testing.T, run func(opts ...Option) (any, error), event bool) string {
	t.Helper()
	var sim *Simulator
	opts := []Option{WithObserver(func(s *Simulator) { sim = s })}
	if !event {
		opts = append(opts, WithEventClock(false))
	}
	res, err := run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "result=%+v\n", res)
	for _, d := range sim.Devices() {
		fmt.Fprintf(&b, "dev%d %s", d.ID, d.BuildReport().String())
	}
	return b.String()
}

// TestEventClockWorkloadEquivalence is the scheduler's acceptance test:
// per-cycle reference and event-driven runs are bit-identical for all six workloads on both presets. The mutex
// family is the scheduler's stress case — its backoff phases are exactly
// the idle spans the calendar fast-forwards.
func TestEventClockWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload equivalence matrix is not short")
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"4Link-4GB", FourLink4GB()},
		{"8Link-8GB", EightLink8GB()},
	}
	for _, c := range configs {
		cfg := c.cfg
		workloads := []struct {
			name string
			run  func(opts ...Option) (any, error)
		}{
			{"mutex", func(opts ...Option) (any, error) { return RunMutex(cfg, 24, 0x40, opts...) }},
			{"stream", func(opts ...Option) (any, error) { return RunStream(cfg, 16, 128, 1.25, opts...) }},
			{"gups", func(opts ...Option) (any, error) { return RunGUPS(cfg, GUPSAtomic, 16, 4096, 1024, opts...) }},
			{"bfs", func(opts ...Option) (any, error) { return RunBFS(cfg, BFSCMC, 8, 300, 4, 1, opts...) }},
			{"replay", func(opts ...Option) (any, error) {
				return RunReplay(cfg, 8, GenerateStrideTrace(0, 512), opts...)
			}},
			{"rwlock", func(opts ...Option) (any, error) { return RunRWLock(cfg, 8, 4, 5, opts...) }},
		}
		for _, w := range workloads {
			t.Run(c.name+"/"+w.name, func(t *testing.T) {
				percycle := runWorkloadEngine(t, w.run, false)
				event := runWorkloadEngine(t, w.run, true)
				if percycle != event {
					t.Errorf("per-cycle and event-driven runs diverge:\n--- percycle\n%s\n--- event\n%s", percycle, event)
				}
			})
		}
	}
}

// runChainEngine drives a fault-injected 4-cube chain through a seeded
// schedule of read bursts separated by ClockN idle gaps — the jump-heavy
// shape where a calendar bug (skipping a down-window boundary, a drop
// timeout, or a forwarded packet's hop delay) would surface. Every
// response's arrival cycle, every send stall and every device report
// lands in the capture string.
func runChainEngine(t *testing.T, plan FaultPlan, event bool) string {
	t.Helper()
	cfg := FourLink4GB()
	opts := []Option{WithDevices(4, TopoChain)}
	if !event {
		opts = append(opts, WithEventClock(false))
	}
	if plan.Rate > 0 {
		opts = append(opts, WithFaults(plan))
	}
	s, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var log strings.Builder
	for burst := 0; burst < 10; burst++ {
		n := 2 + int(next()%6)
		expect := 0
		for i := 0; i < n; i++ {
			cub := int(next() % 4)
			v := int(next() % uint64(cfg.Vaults))
			r, err := BuildRead(cub, uint64(v)*uint64(cfg.MaxBlockSize), uint16(i), 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(i%cfg.Links, r); err != nil {
				fmt.Fprintf(&log, "stall c=%d b=%d i=%d\n", s.Cycle(), burst, i)
				continue
			}
			expect++
		}
		got := 0
		limit := s.Cycle() + 32768
		for got < expect && s.Cycle() < limit {
			s.Clock()
			for l := 0; l < cfg.Links; l++ {
				for {
					rsp, ok := s.Recv(l)
					if !ok {
						break
					}
					fmt.Fprintf(&log, "rsp c=%d l=%d tag=%d\n", s.Cycle(), l, rsp.TAG)
					ReleaseRsp(rsp)
					got++
				}
			}
		}
		if got != expect {
			t.Fatalf("burst %d: drained %d of %d responses", burst, got, expect)
		}
		// Idle gap driven through the batched clock — the event engine
		// must collapse it into calendar jumps without crossing any fault
		// window armed by the burst.
		s.ClockN(next() % 3000)
	}
	fmt.Fprintf(&log, "cycle=%d\n", s.Cycle())
	for _, d := range s.Devices() {
		fmt.Fprintf(&log, "dev%d %s", d.ID, d.BuildReport().String())
	}
	return log.String()
}

// TestEventClockChainFaultEquivalence pins the topology-level jump
// gating under fault injection: per-cycle and event-driven runs of the
// chained burst schedule are bit-identical for a 1% mixed plan and for heavy Down and Drop plans
// whose park windows dominate the timeline.
func TestEventClockChainFaultEquivalence(t *testing.T) {
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"no-faults", FaultPlan{}},
		{"all-1pct", FaultPlan{Rate: 0.01, Seed: 3}},
		{"down-heavy", FaultPlan{Rate: 0.2, Seed: 9, Kinds: FaultDown, DownCycles: 50}},
		{"drop-heavy", FaultPlan{Rate: 0.2, Seed: 7, Kinds: FaultDrop, DropTimeoutCycles: 30}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			percycle := runChainEngine(t, p.plan, false)
			event := runChainEngine(t, p.plan, true)
			if percycle != event {
				t.Errorf("per-cycle and event-driven chain runs diverge:\n--- percycle\n%s\n--- event\n%s", percycle, event)
			}
		})
	}
}
