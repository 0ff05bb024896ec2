// Hot-path benchmarks for the simulator core. Unlike bench_test.go,
// which regenerates the paper's tables and figures, these measure the
// cost of the simulation machinery itself: one uncongested request
// round trip per class (the execute path), a fully idle device cycle
// (the idle-skipping path), and sweep-level wall time (the parallel
// runner). scripts/bench.sh runs them with -benchmem and records the
// results in BENCH_<date>.json; EXPERIMENTS.md tracks the trajectory.
package hmcsim

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/hmccmd"
)

// skipIfRace skips allocation-pinning tests under the race detector,
// whose instrumentation allocates on otherwise allocation-free paths.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation pins do not hold under race instrumentation")
	}
}

// benchDevice builds a quiet 4Link-4GB simulator for micro-benchmarks.
func benchDevice(b *testing.B, cmcNames ...string) *Simulator {
	b.Helper()
	s, err := New(FourLink4GB())
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range cmcNames {
		if err := s.LoadCMC(name); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// roundTrip submits one request, clocks until its response arrives and
// returns the response to the device's free list — the steady-state lifecycle
// a well-behaved driver follows.
func roundTrip(b *testing.B, s *Simulator, link int, r *Rqst) {
	if err := s.Send(link, r); err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 16; c++ {
		s.Clock()
		if rsp, ok := s.Recv(link); ok {
			ReleaseRsp(rsp)
			return
		}
	}
	b.Fatal("no response within 16 cycles")
}

// BenchmarkClockLoopRead64 measures one uncongested RD64 round trip:
// Send, three device cycles, Recv. The request packet is built once and
// resubmitted so allocs/op isolates the device execute path — the
// Flight, the DRAM access and the response construction.
func BenchmarkClockLoopRead64(b *testing.B) {
	s := benchDevice(b)
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, r)
	}
}

// BenchmarkClockLoopWrite64 measures one uncongested WR64 round trip.
func BenchmarkClockLoopWrite64(b *testing.B) {
	s := benchDevice(b)
	r, err := BuildWrite(0, 0x2000, 2, 0, make([]uint64, 8), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, r)
	}
}

// BenchmarkClockLoopCMC measures a lock/unlock CMC pair against the
// same block — the paper's mutex hot path (Algorithm 1) per-operation
// cost, including the CMC dispatch and execute context.
func BenchmarkClockLoopCMC(b *testing.B) {
	s := benchDevice(b, "hmc_lock", "hmc_unlock")
	lock, err := BuildCMC(hmccmd.CMC125, 0, 0x40, 3, 0, []uint64{7, 0})
	if err != nil {
		b.Fatal(err)
	}
	unlock, err := BuildCMC(hmccmd.CMC127, 0, 0x40, 3, 0, []uint64{7, 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, lock)
		roundTrip(b, s, 0, unlock)
	}
}

// BenchmarkClockLoopIdle measures one device cycle with every queue
// empty — the common case in the mutex workload's backoff phases and
// the target of idle-vault skipping.
func BenchmarkClockLoopIdle(b *testing.B) {
	s := benchDevice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Clock()
	}
}

// --- Packet codec benchmarks ---

// benchCMCRqst builds a representative 2-FLIT CMC request for the codec
// benchmarks (the mutex workload's wire shape).
func benchCMCRqst(b *testing.B) *Rqst {
	b.Helper()
	r, err := BuildCMC(hmccmd.CMC125, 0, 0x40, 3, 0, []uint64{7, 0})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkPacketEncode measures in-place request encoding into a
// reused word buffer — the SendWire fast path.
func BenchmarkPacketEncode(b *testing.B) {
	r := benchCMCRqst(b)
	buf := make([]uint64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		words, err := r.EncodeInto(buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = words
	}
}

// BenchmarkPacketDecode measures in-place decoding (CRC check included)
// into a reused request — the RecvWire fast path.
func BenchmarkPacketDecode(b *testing.B) {
	words, err := benchCMCRqst(b).Encode()
	if err != nil {
		b.Fatal(err)
	}
	var dst Rqst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRqstInto(&dst, words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRC measures the packet checksum over a maximum-length
// (9-FLIT WR256) packet — the slicing-by-8 kernel.
func BenchmarkCRC(b *testing.B) {
	r, err := BuildWrite(0, 0x1000, 1, 0, make([]uint64, 32), false)
	if err != nil {
		b.Fatal(err)
	}
	words, err := r.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var dst Rqst
	b.SetBytes(int64(len(words) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRqstInto(&dst, words); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepSpan keeps the sweep benchmarks short enough to iterate:
// thread counts 2..16 against the 4Link-4GB preset.
const (
	benchSweepLo = 2
	benchSweepHi = 16
)

// reportSweepThroughput converts a sweep benchmark's raw wall time into
// the two derived rates BENCH_*.json records: sweep points retired per
// second, and simulated device cycles per second (each point's Max is
// the cycle its last agent finished on, i.e. how far that simulation
// was clocked).
func reportSweepThroughput(b *testing.B, points, cycles uint64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(points)/sec, "points/s")
		b.ReportMetric(float64(cycles)/sec, "simcycles/s")
	}
}

// BenchmarkMutexSweepSerial measures the wall time of a small mutex
// sweep run one thread-count at a time on one reused session.
func BenchmarkMutexSweepSerial(b *testing.B) {
	b.ReportAllocs()
	var points, cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := MutexSweep(FourLink4GB(), benchSweepLo, benchSweepHi, 0x40, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		points += uint64(len(res.Runs))
		for _, r := range res.Runs {
			cycles += r.Max
		}
	}
	reportSweepThroughput(b, points, cycles)
}

// BenchmarkMutexSweepParallel measures the same sweep spread across all
// schedulable cores (workers <= 0 resolves to GOMAXPROCS), one reused
// session per worker.
func BenchmarkMutexSweepParallel(b *testing.B) {
	b.ReportAllocs()
	var points, cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := MutexSweep(FourLink4GB(), benchSweepLo, benchSweepHi, 0x40, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		points += uint64(len(res.Runs))
		for _, r := range res.Runs {
			cycles += r.Max
		}
	}
	reportSweepThroughput(b, points, cycles)
}

// --- Parallel cycle engine benchmarks ---

// chainBatch issues one RD64 per (cube, vault) pair across the host
// links of a 4-cube chain and clocks until every response returns — one
// fully loaded multi-cube batch round trip.
func chainBatch(b *testing.B, s *Simulator, cfg Config, reqs []*Rqst) {
	b.Helper()
	sent := 0
	for i, r := range reqs {
		if err := s.Send(i%cfg.Links, r); err != nil {
			b.Fatal(err)
		}
		sent++
	}
	got := 0
	for c := 0; c < 4096 && got < sent; c++ {
		s.Clock()
		for l := 0; l < cfg.Links; l++ {
			for {
				rsp, ok := s.Recv(l)
				if !ok {
					break
				}
				ReleaseRsp(rsp)
				got++
			}
		}
	}
	if got != sent {
		b.Fatalf("chain batch drained %d of %d responses", got, sent)
	}
}

// chainSim builds the 4-cube chain simulator and request set the chain
// benchmarks share: one RD64 per (cube, vault) pair. event selects the
// cycle scheduler: true is the shipped event-driven calendar, false the
// per-cycle reference engine. extra options attach observers.
func chainSim(b *testing.B, event bool, extra ...Option) (*Simulator, Config, []*Rqst) {
	b.Helper()
	cfg := FourLink4GB()
	opts := append([]Option{WithDevices(4, TopoChain)}, extra...)
	if !event {
		opts = append(opts, WithEventClock(false))
	}
	s, err := New(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	var reqs []*Rqst
	tag := uint16(0)
	for cub := 0; cub < 4; cub++ {
		for v := 0; v < cfg.Vaults; v++ {
			r, err := BuildRead(cub, uint64(v)*uint64(cfg.MaxBlockSize), tag, 0, 64)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, r)
			tag++
		}
	}
	return s, cfg, reqs
}

// benchChainLoop measures a loaded 4-cube chained clock loop: every
// vault of every cube holds work, so each cycle pays four full device
// execute phases plus the inter-cube exchange.
func benchChainLoop(b *testing.B, event bool) {
	s, cfg, reqs := chainSim(b, event)
	// Warm one batch before the timer: the first trip grows the flight
	// and request free lists to the batch's in-flight depth (~45KB for
	// 128 requests), which otherwise bleeds into the measured bytes as a
	// stray ~1 B/op at default benchtime. Steady state is the quantity
	// under test.
	chainBatch(b, s, cfg, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chainBatch(b, s, cfg, reqs)
	}
}

// BenchmarkTopoChainClockSerial measures the serially stepped chained
// loop — the baseline for the engine's wall-clock acceptance criterion.
// Like every benchmark without an explicit WithEventClock(false), it
// runs the shipped (event-driven) scheduler.
func BenchmarkTopoChainClockSerial(b *testing.B) { benchChainLoop(b, true) }

// BenchmarkTopoChainClockEvent pits the two engine modes against each
// other on the identical loaded chain loop: percycle is the pre-event
// reference engine (WithEventClock(false)), serial the shipped
// event-driven scheduler. The loaded batch bounds the calendar's
// overhead when there is nothing to skip; the idle win is
// BenchmarkIdleFastForward's department.
func BenchmarkTopoChainClockEvent(b *testing.B) {
	b.Run("percycle", func(b *testing.B) { benchChainLoop(b, false) })
	b.Run("serial", func(b *testing.B) { benchChainLoop(b, true) })
}

// idleFFSpan is the idle stretch each BenchmarkIdleFastForward
// iteration advances — long enough that the per-cycle engine's walk
// dominates, short enough to iterate.
const idleFFSpan = 4096

// BenchmarkIdleFastForward measures ClockN over a fully idle 4-cube
// chain — the idle-dominated stretch between workload bursts (mutex
// backoff, drain tails). The event variant must collapse the whole span
// into one calendar jump per cube; percycle walks every cycle of every
// cube. The ≥10x acceptance criterion compares these two numbers.
// observed is event with a power model, a metrics registry and a
// sampler whose periodic sampling is off attached: observers are
// charged per jump, so it must stay within 2x of event.
func BenchmarkIdleFastForward(b *testing.B) {
	for _, bc := range []struct {
		name     string
		event    bool
		observed bool
	}{
		{"event", true, false},
		{"percycle", false, false},
		{"observed", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var opts []Option
			if bc.observed {
				reg := NewMetricsRegistry()
				opts = []Option{WithPowerModel(NewPowerModel(DefaultPowerParams())),
					WithMetrics(reg), WithSampler(NewMetricsSampler(reg, io.Discard, 0))}
			}
			s, cfg, reqs := chainSim(b, bc.event, opts...)
			// Warm one batch so every pool and queue has traffic behind
			// it: the idle span being measured is post-burst idleness,
			// not a never-used simulator.
			chainBatch(b, s, cfg, reqs[:cfg.Links])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ClockN(idleFFSpan)
			}
			b.ReportMetric(float64(idleFFSpan)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// TestTopoChainZeroAlloc pins the zero-alloc topo clock: a steady-state
// multi-cube batch round trip — Send with request forwarding across the
// chain, clocking under the event scheduler, Recv with response
// forwarding back — allocates nothing once the free lists are warm. The
// forwarding path used to Clone every forwarded request (~96 allocs per
// loaded chain cycle); the topology free list killed that.
func TestTopoChainZeroAlloc(t *testing.T) {
	skipIfRace(t)
	t.Run("serial", func(t *testing.T) {
		cfg := FourLink4GB()
		s, err := New(cfg, WithDevices(4, TopoChain))
		if err != nil {
			t.Fatal(err)
		}
		var reqs []*Rqst
		tag := uint16(0)
		for cub := 0; cub < 4; cub++ {
			for v := 0; v < cfg.Vaults; v++ {
				r, err := BuildRead(cub, uint64(v)*uint64(cfg.MaxBlockSize), tag, 0, 64)
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, r)
				tag++
			}
		}
		trip := func() {
			sent := 0
			for i, r := range reqs {
				if err := s.Send(i%cfg.Links, r); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			got := 0
			for c := 0; c < 4096 && got < sent; c++ {
				s.Clock()
				for l := 0; l < cfg.Links; l++ {
					for {
						rsp, ok := s.Recv(l)
						if !ok {
							break
						}
						ReleaseRsp(rsp)
						got++
					}
				}
			}
			if got != sent {
				t.Fatalf("chain batch drained %d of %d responses", got, sent)
			}
		}
		trip() // warm the packet pools and the topology free list
		if allocs := testing.AllocsPerRun(100, trip); allocs != 0 {
			t.Errorf("chained round trip: %.1f allocs/op, want 0", allocs)
		}
		// Pin bytes too, not just object counts: a zero-object run can
		// still grow pools through free-list append doubling, which
		// AllocsPerRun under-reports when the runtime coalesces. GC is
		// pinned off so the store's sync.Pool victims cannot be dropped
		// and refilled mid-measurement.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// Re-warm once with GC pinned: AllocsPerRun's final GC may have
		// demoted sync.Pool contents, and the first trip after that
		// legitimately refills them. The pin takes the minimum byte
		// delta across several measurement windows — a real per-trip
		// allocation shows in every window, while one-off runtime
		// bookkeeping (pool-chain segments, timer wheels) lands in at
		// most one.
		trip()
		minDelta := ^uint64(0)
		for w := 0; w < 5; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20; i++ {
				trip()
			}
			runtime.ReadMemStats(&after)
			if delta := after.TotalAlloc - before.TotalAlloc; delta < minDelta {
				minDelta = delta
			}
		}
		if minDelta != 0 {
			t.Errorf("chained round trip: min %d bytes per 20-trip window, want 0", minDelta)
		}
	})
}

// BenchmarkPooledExecPhase measures the execute phase of one device with
// all 32 vaults loaded, without topology forwarding in the way. The
// name and the serial sub-benchmark keep the BENCH record's row.
func BenchmarkPooledExecPhase(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		cfg := FourLink4GB()
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var reqs []*Rqst
		for v := 0; v < cfg.Vaults; v++ {
			r, err := BuildRead(0, uint64(v)*uint64(cfg.MaxBlockSize), uint16(v), 0, 64)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chainBatch(b, s, cfg, reqs)
		}
	})
}

// --- Metrics hot-path benchmarks ---

// BenchmarkMetricsCounterInc measures the push-counter hot path — the
// documented zero-allocation contract (one atomic add).
func BenchmarkMetricsCounterInc(b *testing.B) {
	c := NewMetricsRegistry().Counter("bench_total", MetricsL("dev", "0"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkMetricsHistogramObserve measures the push-histogram hot path:
// bucket add, sum, count and two bounded min/max CAS loops.
func BenchmarkMetricsHistogramObserve(b *testing.B) {
	h := NewMetricsRegistry().Histogram("bench_cycles", MetricsL("dev", "0"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 1023)
	}
}

// BenchmarkClockLoopRead64Metrics is BenchmarkClockLoopRead64 with the
// full metrics stack registered — device Func instruments plus the
// per-class latency histogram observed on every Recv. allocs/op must
// stay 0: enabling metrics may not regress the zero-allocation packet
// path (TestClockLoopZeroAllocWithMetrics pins this).
func BenchmarkClockLoopRead64Metrics(b *testing.B) {
	reg := NewMetricsRegistry()
	s, err := New(FourLink4GB(), WithMetrics(reg))
	if err != nil {
		b.Fatal(err)
	}
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, r)
	}
}

// --- Fault-path benchmarks ---

// faultTrip is roundTrip with a cycle budget wide enough for retry
// sequences and link-down windows on the way to the response.
func faultTrip(b *testing.B, s *Simulator, link int, r *Rqst) {
	if err := s.SendWithRetry(link, r, 4096); err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 4096; c++ {
		s.Clock()
		if rsp, ok := s.Recv(link); ok {
			ReleaseRsp(rsp)
			return
		}
	}
	b.Fatal("no response within 4096 cycles")
}

// BenchmarkFaultFreeClockLoop measures the RD64 round trip with a
// disabled fault plan installed: the reliability subsystem's cost when
// injection is off must be one nil check — same ns/op and 0 allocs/op
// as BenchmarkClockLoopRead64.
func BenchmarkFaultFreeClockLoop(b *testing.B) {
	s, err := New(FourLink4GB(), WithFaults(FaultPlan{Rate: 0}))
	if err != nil {
		b.Fatal(err)
	}
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, r)
	}
}

// BenchmarkFaultClockLoop1pct measures the same round trip under the
// acceptance-criteria fault plan (1% of traversals faulted, seeded):
// retry stamping, CRC corruption/verification and timeout parking are
// all on the measured path.
func BenchmarkFaultClockLoop1pct(b *testing.B) {
	s, err := New(FourLink4GB(), WithFaults(FaultPlan{Rate: 0.01, Seed: 1}))
	if err != nil {
		b.Fatal(err)
	}
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		faultTrip(b, s, 0, r)
	}
}

// TestFaultFreeRoundTripZeroAlloc pins the tentpole's zero-fault
// contract directly: with a disabled plan installed, the steady-state
// round trip allocates nothing.
func TestFaultFreeRoundTripZeroAlloc(t *testing.T) {
	skipIfRace(t)
	s, err := New(FourLink4GB(), WithFaults(FaultPlan{Rate: 0}))
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	trip := func() {
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 16; c++ {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				ReleaseRsp(rsp)
				return
			}
		}
		t.Fatal("no response within 16 cycles")
	}
	trip() // warm the pools before counting
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Errorf("fault-free round trip: %.1f allocs/op, want 0", allocs)
	}
}

// TestNewFootprintBytes pins what building a simulator costs in bytes.
// Vaults, bank records, the CMC slot array, link retry rings and
// responses all wait for first use, so New allocates none of them; an
// hmcd session pays this on every init of a cold pool. The pin is the
// minimum TotalAlloc delta over five builds, which sheds one-off
// runtime bookkeeping.
func TestNewFootprintBytes(t *testing.T) {
	skipIfRace(t)
	for _, c := range []struct {
		cfg   Config
		limit uint64
	}{
		{FourLink4GB(), 6000},
		{EightLink8GB(), 9000},
	} {
		minDelta := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := New(c.cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(s)
			minDelta = min(minDelta, after.TotalAlloc-before.TotalAlloc)
		}
		if minDelta > c.limit {
			t.Errorf("New(%v) allocates %d bytes, want at most %d", c.cfg, minDelta, c.limit)
		}
	}
}

// TestMetricsHotPathZeroAlloc pins the acceptance criterion directly:
// Inc and Observe allocate nothing.
func TestMetricsHotPathZeroAlloc(t *testing.T) {
	skipIfRace(t)
	reg := NewMetricsRegistry()
	c := reg.Counter("t_total")
	h := reg.Histogram("t_cycles")
	n := uint64(0)
	if allocs := testing.AllocsPerRun(500, func() {
		c.Inc()
		h.Observe(n)
		n += 97
	}); allocs != 0 {
		t.Errorf("metrics hot path: %.1f allocs/op, want 0", allocs)
	}
}

// TestClockLoopZeroAllocWithMetrics pins the tentpole acceptance
// criterion: a steady-state request round trip stays allocation-free
// with the metrics layer enabled (Func instruments idle, latency
// histogram observed on every Recv).
func TestClockLoopZeroAllocWithMetrics(t *testing.T) {
	skipIfRace(t)
	reg := NewMetricsRegistry()
	s, err := New(FourLink4GB(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	trip := func() {
		if err := s.Send(0, r); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 16; c++ {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				ReleaseRsp(rsp)
				return
			}
		}
		t.Fatal("no response within 16 cycles")
	}
	trip() // warm the pools before counting
	if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
		t.Errorf("instrumented round trip: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkClockLoopSpansOff measures the RD64 round trip on a
// simulator built without a span tracer — the disabled-path baseline
// the sampled overhead is judged against. It must match
// BenchmarkClockLoopRead64 (with no observer attached each observation
// point is one compare) and stay at 0 allocs/op.
func BenchmarkClockLoopSpansOff(b *testing.B) {
	s := benchDevice(b)
	r, err := BuildRead(0, 0x1000, 1, 0, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, r)
	}
}

// BenchmarkClockLoopSpansSampled measures the same round trip with a
// span tracer attached at 1-in-16 TAG-modulo sampling, cycling the
// request tag so the sampler sees the configured mix of tracked and
// untracked traffic. Every pipeline event is one call into the span
// sink, so this costs about a fifth more than BenchmarkClockLoopSpansOff
// on a 2-vCPU host (EXPERIMENTS.md).
func BenchmarkClockLoopSpansSampled(b *testing.B) {
	tr := NewSpanTracer(SpanConfig{SampleMod: 16})
	s, err := New(FourLink4GB(), WithSpans(tr))
	if err != nil {
		b.Fatal(err)
	}
	rqsts := make([]*Rqst, 16)
	for tag := range rqsts {
		r, err := BuildRead(0, 0x1000, uint16(tag), 0, 64)
		if err != nil {
			b.Fatal(err)
		}
		rqsts[tag] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, s, 0, rqsts[i&15])
	}
}
