package hmcsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hmccmd"
	"repro/internal/sim"
)

// The event-driven cycle scheduler must be invisible in every result: a
// run that fast-forwards quiescent spans and skips idle cubes has to
// reproduce the per-cycle reference engine bit for bit. These tests pin
// that at the workload level (all six workloads on both paper
// configurations) and at the topology level (a fault-injected multi-cube
// chain whose link-down windows and drop timeouts gate every jump).

// runWorkloadEngine runs one workload under the chosen engine mode and
// renders everything observable into one comparable string.
func runWorkloadEngine(t *testing.T, cfg Config, run func(ss *Session) (any, error), event bool) string {
	t.Helper()
	var opts []Option
	if !event {
		opts = append(opts, WithEventClock(false))
	}
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(ss)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "result=%+v\n", res)
	for _, d := range ss.Sim().Devices() {
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
	workloads := []struct {
		name string
		run  func(ss *Session) (any, error)
	}{
		{"mutex", func(ss *Session) (any, error) { return ss.Mutex(24, 0x40) }},
		{"stream", func(ss *Session) (any, error) { return ss.Stream(16, 128, 1.25) }},
		{"gups", func(ss *Session) (any, error) { return ss.GUPS(GUPSAtomic, 16, 4096, 1024) }},
		{"bfs", func(ss *Session) (any, error) { return ss.BFS(BFSCMC, 8, 300, 4, 1) }},
		{"replay", func(ss *Session) (any, error) { return ss.Replay(8, GenerateStrideTrace(0, 512)) }},
		{"rwlock", func(ss *Session) (any, error) { return ss.RWLock(8, 4, 5) }},
	}
	for _, c := range configs {
		for _, w := range workloads {
			t.Run(c.name+"/"+w.name, func(t *testing.T) {
				percycle := runWorkloadEngine(t, c.cfg, w.run, false)
				event := runWorkloadEngine(t, c.cfg, w.run, true)
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
			r, err := Build(hmccmd.RD64, cub, uint64(v)*uint64(cfg.MaxBlockSize), uint16(i), 0, nil)
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

// runBatchedTopology drives a 4-cube topology of the given kind through
// 400 seeded steps, each a read burst to random cubes, vaults and links
// or a Clock, ClockN(k) or ClockUntilRecv(k) with k < 40, draining every
// host link after each step. Half the bursts aim at one cube, so spans
// where a single remote cube holds all the work while requests and
// responses are in flight come up often. Every stall, every
// ClockUntilRecv result, every response's cycle, link and tag, and each
// device's report land in the capture string.
func runBatchedTopology(t *testing.T, kind sim.Kind, plan FaultPlan, seed uint64, event bool) string {
	t.Helper()
	cfg := FourLink4GB()
	opts := []Option{WithDevices(4, kind)}
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
	rng := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var log strings.Builder
	tag := uint16(0)
	for step := 0; step < 400; step++ {
		switch op := next() % 8; {
		case op < 3:
			one := next()%2 == 0
			cub := int(next() % 4)
			for i, n := 0, 1+int(next()%6); i < n; i++ {
				if !one {
					cub = int(next() % 4)
				}
				v := next() % uint64(cfg.Vaults)
				adrs := (next()%8*uint64(cfg.Vaults) + v) * uint64(cfg.MaxBlockSize)
				link := int(next() % uint64(cfg.Links))
				r, err := Build([...]RqstCmd{hmccmd.RD16, hmccmd.RD32, hmccmd.RD64}[next()%3], cub, adrs, tag, link, nil)
				if err != nil {
					t.Fatal(err)
				}
				tag = (tag + 1) % 512
				if err := s.Send(link, r); err != nil {
					fmt.Fprintf(&log, "stall c=%d l=%d cub=%d\n", s.Cycle(), link, cub)
				}
			}
		case op < 5:
			s.Clock()
		case op < 7:
			s.ClockN(next() % 40)
		default:
			k := next() % 40
			fmt.Fprintf(&log, "until k=%d adv=%d c=%d\n", k, s.ClockUntilRecv(k), s.Cycle())
		}
		for l := 0; l < cfg.Links; l++ {
			for {
				rsp, ok := s.Recv(l)
				if !ok {
					break
				}
				fmt.Fprintf(&log, "rsp c=%d l=%d tag=%d\n", s.Cycle(), l, rsp.TAG)
				ReleaseRsp(rsp)
			}
		}
	}
	fmt.Fprintf(&log, "cycle=%d\n", s.Cycle())
	for _, d := range s.Devices() {
		fmt.Fprintf(&log, "dev%d %s", d.ID, d.BuildReport().String())
	}
	return log.String()
}

// TestEventClockBatchedTopologies pins the batched drivers on every
// multi-cube wiring with traffic in flight: per-cycle and event-driven
// runs of the same seeded mix of bursts, Clock, ClockN and
// ClockUntilRecv calls are bit-identical on a chain, a star and a ring,
// with and without a fault plan. runChainEngine batches only idle gaps;
// here ClockN and ClockUntilRecv start while forwarded requests and
// responses are in transit and remote cubes are busy.
func TestEventClockBatchedTopologies(t *testing.T) {
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"no-faults", FaultPlan{}},
		{"all-1pct", FaultPlan{Rate: 0.01, Seed: 7}},
	}
	for _, kind := range []sim.Kind{TopoChain, TopoStar, TopoRing} {
		for _, p := range plans {
			for seed := uint64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", kind, p.name, seed), func(t *testing.T) {
					percycle := runBatchedTopology(t, kind, p.plan, seed, false)
					event := runBatchedTopology(t, kind, p.plan, seed, true)
					if percycle != event {
						t.Errorf("per-cycle and event-driven runs diverge: %s", firstDifference(percycle, event))
					}
				})
			}
		}
	}
}

// observedClock drives one observed run: a read burst per round,
// drained through untilRecv with small budgets, then an idle gap through
// clockN. It returns the host-visible log, the sample stream and the
// power model.
func observedClock(t *testing.T, devices int, kind sim.Kind, plan FaultPlan, untilRecv func(*Simulator, uint64) uint64, clockN func(*Simulator, uint64)) (string, []byte, *PowerModel) {
	t.Helper()
	cfg := FourLink4GB()
	p := DefaultPowerParams()
	p.StaticPJPerCycle = 0.3
	pm := NewPowerModel(p)
	reg := NewMetricsRegistry()
	var samples bytes.Buffer
	sm := NewMetricsSampler(reg, &samples, 7)
	opts := []Option{WithPowerModel(pm), WithMetrics(reg), WithSampler(sm), WithDevices(devices, kind)}
	if plan.Rate > 0 {
		opts = append(opts, WithFaults(plan))
	}
	s, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var log strings.Builder
	for round := 0; round < 8; round++ {
		n, expect := 2+int(next()%12), 0
		for i := 0; i < n; i++ {
			cub := int(next() % uint64(devices))
			v := int(next() % uint64(cfg.Vaults))
			r, err := Build(hmccmd.RD64, cub, uint64(v)*uint64(cfg.MaxBlockSize), uint16(i), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Send(i%cfg.Links, r); err != nil {
				fmt.Fprintf(&log, "stall c=%d\n", s.Cycle())
				continue
			}
			expect++
		}
		for got := 0; got < expect; {
			adv := untilRecv(s, 1+next()%9)
			fmt.Fprintf(&log, "adv=%d c=%d\n", adv, s.Cycle())
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
			if s.Cycle() > 1<<16 {
				t.Fatalf("round %d: drained %d of %d responses", round, got, expect)
			}
		}
		clockN(s, next()%400)
	}
	if err := sm.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := float64(s.Cycle()*uint64(devices)) * p.StaticPJPerCycle; pm.Static() != want {
		t.Errorf("static energy %v after %d cycles of %d devices, want %v", pm.Static(), s.Cycle(), devices, want)
	}
	for _, d := range s.Devices() {
		fmt.Fprintf(&log, "%s", d.BuildReport())
	}
	return log.String(), samples.Bytes(), pm
}

// TestObservedClockMatchesPerCycle pins the jump-charged observers: with
// a power model, a metrics registry and a sampler attached, a run driven
// through ClockN and ClockUntilRecv, which charge the observers once per
// step or jump, equals the same run driven one Clock at a time, on one
// cube and on every multi-cube wiring (a two-cube chain and a four-cube
// ring under a fault plan, a four-cube star without). The sample streams
// must be byte-equal and every power component exactly equal. The static
// coefficient is not an integer, so static energy kept as a running
// float sum would differ between the two drivers in its last bits.
func TestObservedClockMatchesPerCycle(t *testing.T) {
	stepUntilRecv := func(s *Simulator, budget uint64) uint64 {
		var adv uint64
		for adv < budget {
			s.Clock()
			adv++
			if s.RspAvailable() {
				break
			}
		}
		return adv
	}
	stepN := func(s *Simulator, n uint64) {
		for i := uint64(0); i < n; i++ {
			s.Clock()
		}
	}
	for _, tc := range []struct {
		name    string
		devices int
		kind    sim.Kind
		plan    FaultPlan
	}{
		{"single", 1, TopoSingle, FaultPlan{}},
		{"chain-faults", 2, TopoChain, FaultPlan{Rate: 0.05, Seed: 4, Kinds: FaultAll}},
		{"star", 4, TopoStar, FaultPlan{}},
		{"ring-faults", 4, TopoRing, FaultPlan{Rate: 0.05, Seed: 4, Kinds: FaultAll}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantLog, wantSamples, wantPM := observedClock(t, tc.devices, tc.kind, tc.plan, stepUntilRecv, stepN)
			gotLog, gotSamples, gotPM := observedClock(t, tc.devices, tc.kind, tc.plan, (*Simulator).ClockUntilRecv, (*Simulator).ClockN)
			if gotLog != wantLog {
				t.Errorf("host logs differ: %s", firstDifference(wantLog, gotLog))
			}
			if !bytes.Equal(gotSamples, wantSamples) {
				t.Errorf("sample streams differ: %s", firstDifference(string(wantSamples), string(gotSamples)))
			}
			if len(wantSamples) == 0 {
				t.Error("no samples taken")
			}
			if gotPM.DRAM != wantPM.DRAM || gotPM.Xbar != wantPM.Xbar || gotPM.SerDes != wantPM.SerDes ||
				gotPM.ALU != wantPM.ALU || gotPM.Static() != wantPM.Static() || gotPM.TotalPJ() != wantPM.TotalPJ() ||
				gotPM.Ops != wantPM.Ops {
				t.Errorf("power differs:\n got %s\nwant %s", gotPM, wantPM)
			}
		})
	}
}
