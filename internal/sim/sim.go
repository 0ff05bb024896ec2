// Package sim implements the simulation context — the hmc_sim_t
// equivalent that owns the chained devices, the routing between them
// and the one simulation clock, and ties tracing, the CMC registry and
// the optional power extension to them behind one host-facing API:
//
//	s, _ := sim.New(config.FourLink4GB())
//	_ = s.LoadCMC("hmc_lock")                                // hmc_load_cmc()
//	r, _ := sim.Build(hmccmd.RD64, 0, addr, tag, link, nil)  // hmcsim_build_memrequest()
//	_ = s.Send(link, r)                                      // hmcsim_send()
//	s.Clock()                                                // hmcsim_clock()
//	rsp, ok := s.Recv(link)                                  // hmcsim_recv()
//
// The API mirrors the C library's call structure (paper §IV-A "API
// Compatibility") so simulation drivers written against HMC-Sim translate
// mechanically.
package sim

import (
	"fmt"

	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/jtag"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/power"
	"repro/internal/span"
	"repro/internal/trace"
)

type options struct {
	tracer     trace.Tracer
	devices    int
	kind       Kind
	powerModel *power.Model
	metricsReg *metrics.Registry
	sampler    *metrics.Sampler
	faultPlan  *fault.Plan
	eventOff   bool
	spans      *span.Tracer
}

// Option configures a Simulator.
type Option func(*options)

// WithTracer attaches a trace sink.
func WithTracer(t trace.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithDevices simulates n chained devices wired as kind.
func WithDevices(n int, kind Kind) Option {
	return func(o *options) { o.devices = n; o.kind = kind }
}

// WithPowerModel enables the power extension, accumulating energy into
// a model the caller retains and reads after the run (power.New builds
// one from coefficients).
func WithPowerModel(m *power.Model) Option {
	return func(o *options) { o.powerModel = m }
}

// WithMetrics registers the simulation's observability surface — every
// device's counters, occupancy gauges and per-class latency histograms
// (device.RegisterMetrics), plus the power model's energy gauges when the
// extension is enabled — with reg. The registry is what the live
// introspection endpoint (metrics.Serve) and the time-series sampler
// read. The push instruments it enables keep the documented
// zero-allocation hot path; the pull instruments cost nothing until
// scraped. Use a fresh registry per simulator: the Func closures pin the
// devices they read.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.metricsReg = reg }
}

// WithSampler attaches a cycle-indexed time-series sampler, which
// snapshots the metrics registry whenever the cycle lands on its period:
// the clock drivers never jump past a sampling cycle and call
// MaybeSample after every step or jump. Combine with WithMetrics on the
// same registry; the caller flushes the sampler when the run ends.
func WithSampler(sm *metrics.Sampler) Option {
	return func(o *options) { o.sampler = sm }
}

// WithSpans attaches a request-lifecycle span tracer (span.New): every
// device and the topology record cycle-stamped pipeline-stage events
// for the requests the tracer samples, into its fixed-capacity flight
// recorder, which the caller keeps and reads after the run. Purely
// observational — simulation results are bit-identical with spans on
// or off. When combined with WithMetrics, the tracer also feeds
// per-stage hmc_stage_cycles histograms into the registry.
func WithSpans(t *span.Tracer) Option {
	return func(o *options) { o.spans = t }
}

// WithEventClock toggles event-driven cycle scheduling (on by default).
// The event scheduler consults a per-cube next-event calendar to
// fast-forward provably-idle cubes and whole idle spans; results are
// bit-identical to per-cycle stepping in every configuration, so
// disabling it exists for debugging and for equivalence-suite reference
// runs (the topology-level analogue of device.ForceWalk).
func WithEventClock(on bool) Option {
	return func(o *options) { o.eventOff = !on }
}

// Simulator is one simulation context: the devices, wired as one
// topology with device 0 host-attached, and the one simulation clock.
type Simulator struct {
	cfg      config.Config
	kind     Kind
	devs     []*device.Device
	cycle    uint64
	eventOff bool // WithEventClock(false): step every cube every cycle
	// rspPending has bit i set while host link i's pendingRsp FIFO holds
	// a response, so the forwarded-response polls visit only those
	// links. Config.Validate caps Links at 8; the byte fits beside
	// eventOff without growing the struct.
	rspPending uint8

	pm      *power.Model
	reg     *metrics.Registry
	sampler *metrics.Sampler
	spans   *span.Tracer // also records the inter-cube hop events

	// Forwarding state (topo.go). pendingRqst and pendingRsp hold the
	// packets in transit between device 0 and the remote cubes. Each
	// host link's pendingRsp FIFO is consumed through its rspHead index,
	// so a drained queue rewinds onto its backing array instead of
	// leaking capacity behind the slice head. rqstFree recycles the
	// request clones Send buffers, so steady-state forwarding allocates
	// nothing. forwardedRqsts and forwardedRsps count the packets that
	// crossed at least one inter-cube hop.
	pendingRqst                   []delayedRqst
	pendingRsp                    [][]delayedRsp
	rspHead                       []int
	rqstFree                      []*packet.Rqst
	forwardedRqsts, forwardedRsps uint64

	// Wire-level scratch: SendWire decodes into wireRqst (adopted by the
	// device before SendWire returns); RecvWire encodes into wire, which
	// is retained and reused across calls.
	wireRqst packet.Rqst
	wire     []uint64
}

// New builds a simulation context for identically configured devices.
func New(cfg config.Config, opts ...Option) (*Simulator, error) {
	o := options{devices: 1, kind: KindSingle}
	for _, opt := range opts {
		opt(&o)
	}
	if o.devices < 1 || o.devices > config.MaxDevs {
		return nil, fmt.Errorf("%w: %d", ErrBadCount, o.devices)
	}
	if o.kind == KindSingle && o.devices != 1 {
		return nil, fmt.Errorf("%w: single topology with %d devices", ErrBadCount, o.devices)
	}
	s := &Simulator{
		cfg: cfg, kind: o.kind, eventOff: o.eventOff,
		pm: o.powerModel, reg: o.metricsReg, sampler: o.sampler, spans: o.spans,
	}
	for i := 0; i < o.devices; i++ {
		d, err := device.New(i, cfg)
		if err != nil {
			return nil, err
		}
		s.devs = append(s.devs, d)
	}
	if o.devices > 1 {
		// A single cube forwards nothing (Send routes CUB 0 directly),
		// so only a multi-cube simulator holds return queues.
		s.pendingRsp = make([][]delayedRsp, cfg.Links)
		s.rspHead = make([]int, cfg.Links)
	}
	if o.faultPlan != nil {
		for _, d := range s.devs {
			if err := d.SetFaultPlan(*o.faultPlan); err != nil {
				return nil, err
			}
		}
	}
	// Each observer is one sink of every device's pipeline events.
	for _, d := range s.devs {
		if o.tracer != nil {
			d.Observe(device.TraceSink(d, o.tracer))
		}
		if o.spans != nil {
			d.Observe(device.SpanSink(d, o.spans))
		}
		if s.pm != nil {
			d.Observe(device.PowerSink(s.pm))
		}
		if s.reg != nil {
			d.RegisterMetrics(s.reg)
		}
	}
	if o.spans != nil && s.reg != nil {
		o.spans.RegisterMetrics(s.reg)
	}
	if s.pm != nil && s.reg != nil {
		s.pm.RegisterMetrics(s.reg)
	}
	return s, nil
}

// Config returns the per-device configuration.
func (s *Simulator) Config() config.Config { return s.cfg }

// Cycle returns the current simulation cycle.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// Clock advances the whole simulation one cycle (hmcsim_clock).
func (s *Simulator) Clock() {
	s.step()
	s.charge(1)
}

// spanLen caps a jump of up to n cycles so it ends no later than the
// sampler's next sampling cycle.
func (s *Simulator) spanLen(n uint64) uint64 {
	if s.sampler != nil {
		n = min(n, s.sampler.Next(s.cycle)-s.cycle)
	}
	return n
}

// charge books the k cycles just stepped or jumped: static power for
// every device, and a sample when the cycle lands on the sampler's
// period.
func (s *Simulator) charge(k uint64) {
	if s.pm != nil {
		s.pm.ChargeCycles(k * uint64(len(s.devs)))
	}
	if s.sampler != nil {
		s.sampler.MaybeSample(s.cycle)
	}
}

// ClockN advances the simulation n cycles — the batched clock driver,
// identical in every result to calling Clock n times. Provably idle
// spans (every cube quiescent or parked behind fault windows, no
// forwarded packet deliverable) collapse into one SkipCycles jump per
// cube, never past the sampler's next sampling cycle; every other cycle
// is one step. WithEventClock(false) steps every cycle.
func (s *Simulator) ClockN(n uint64) {
	for n > 0 {
		var k uint64
		if !s.eventOff {
			k = s.jumpSpan(s.spanLen(n))
		}
		if k > 0 {
			s.skipAll(k)
		} else {
			s.step()
			k = 1
		}
		s.charge(k)
		n -= k
	}
}

// ClockUntilRecv advances the simulation until a response is available
// on some host link or budget cycles have elapsed, returning the cycles
// advanced (at least one when budget permits, mirroring a per-cycle
// driver that clocks before polling). It is the run-until-event clock
// driver: like ClockN it jumps provably-idle and fault-parked stretches
// in one step, but never past the cycle a response surfaces or matures,
// so a caller polling Recv afterwards observes responses on exactly the
// cycle a clock-and-poll-every-cycle loop would.
func (s *Simulator) ClockUntilRecv(budget uint64) uint64 {
	if budget > 0 && s.RspAvailable() {
		// Degenerate call (a response is already waiting): advance the
		// one cycle a clock-and-poll driver would.
		s.Clock()
		return 1
	}
	var adv uint64
	for adv < budget {
		var k uint64
		if !s.eventOff {
			k = s.recvSpan(s.spanLen(budget - adv))
		}
		if k > 0 {
			// A jump only lands on (never crosses) a maturity cycle;
			// device-0 queues are frozen across it, so only the
			// pendingRsp heads can have become available.
			s.skipAll(k)
		} else {
			s.step()
			k = 1
		}
		s.charge(k)
		adv += k
		if s.RspAvailable() {
			break
		}
	}
	return adv
}

// Reset rewinds the simulation to its as-constructed state without
// reallocating any of it: in-transit forwarded packets recycle into
// their free lists (a forwarded response into that of the cube that
// built it), the hop-delay queues rewind onto their backing arrays, the
// clock and forwarding counters zero, and every device's queues, retry
// rings, banks, registers, statistics, fault-injector streams and
// backing store return to cycle zero in place (device.Reset). CMC
// registrations survive — the shipped operations are stateless, so a
// reused simulator with its table already loaded is bit-identical, in
// every statistic and packet, to a fresh one that just called LoadCMC
// (the reset bit-identity suite pins this).
//
// Reset is the sweep fast path: constructing a simulator costs dozens
// of allocations and megabytes of queue backing; Resetting one costs
// none. It is intended for simulators that satisfy Reusable — per-run
// state bound at construction (tracer buffers, power models, metrics
// registries, samplers) is NOT rewound and would accumulate across runs.
func (s *Simulator) Reset() {
	for _, p := range s.pendingRqst {
		s.putRqst(p.rqst)
	}
	s.pendingRqst = s.pendingRqst[:0]
	for link := range s.pendingRsp {
		q := s.pendingRsp[link]
		for i := s.rspHead[link]; i < len(q); i++ {
			packet.PutRsp(q[i].rsp)
			q[i].rsp = nil
		}
		s.pendingRsp[link] = q[:0]
		s.rspHead[link] = 0
	}
	s.rspPending = 0
	s.forwardedRqsts, s.forwardedRsps = 0, 0
	s.cycle = 0
	for _, d := range s.devs {
		d.Reset()
	}
}

// Trim releases the reusable capacity Reset keeps warm — every device's
// materialized store pages (scrubbed back to the process-wide page pool),
// packet free lists, ports, vaults with their bank arrays, and an empty
// CMC slot array — shrinking an idle simulator toward its freshly built
// footprint. Call it after Reset on a simulator headed for an idle
// pool; capacity re-materializes on demand when the simulator next
// runs. After Reset, Trim touches no run-visible state, so Reset+Trim
// stays bit-identical to a fresh simulator; mid-run it would discard
// live state.
func (s *Simulator) Trim() {
	for _, d := range s.devs {
		d.Trim()
	}
}

// Reusable reports whether a simulator built with these options can be
// recycled with Reset between runs without observable state carrying
// over. Fault plans, event-mode selection and multi-device topologies
// are all reset-safe; tracers, power models, metrics registries,
// samplers and span tracers bind per-construction state and are not.
// The pooled sweep runners consult this to decide between session
// reuse and fresh-per-point construction.
func Reusable(opts ...Option) bool {
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	return o.tracer == nil && o.powerModel == nil && o.metricsReg == nil &&
		o.sampler == nil && o.spans == nil
}

// Close does nothing: a simulator runs entirely on its caller's
// goroutine and holds nothing but memory, which the garbage collector
// reclaims. It stays so that drivers which defer Close keep compiling;
// new code need not call it.
func (s *Simulator) Close() {}

// SendWire submits an encoded request packet — the C library's
// hmcsim_send shape, where the host hands over raw uint64 words. The
// packet is CRC-checked and decoded into an internal scratch the device
// adopts before SendWire returns, so the caller's buffer is free for
// reuse immediately.
func (s *Simulator) SendWire(link int, words []uint64) error {
	if err := packet.DecodeRqstInto(&s.wireRqst, words); err != nil {
		return err
	}
	return s.Send(link, &s.wireRqst)
}

// RecvWire pops the next response as encoded packet words — the C
// library's hmcsim_recv shape. The returned slice is an internal scratch
// valid until the next RecvWire call on this simulator; the backing
// response object is recycled before RecvWire returns.
func (s *Simulator) RecvWire(link int) ([]uint64, bool) {
	rsp, ok := s.Recv(link)
	if !ok {
		return nil, false
	}
	words, err := rsp.EncodeInto(s.wire)
	packet.PutRsp(rsp)
	if err != nil {
		// Responses are device-built; failing to encode one is a
		// programming error, not an I/O condition.
		panic(fmt.Sprintf("sim: encoding device response: %v", err))
	}
	s.wire = words
	return words, true
}

// LoadCMC resolves a registered CMC operation by name — the hmc_load_cmc
// analogue of dlopen'ing a shared object — and binds a fresh instance of
// it into every device's CMC table.
func (s *Simulator) LoadCMC(name string) error {
	for _, d := range s.devs {
		op, err := cmc.Open(name)
		if err != nil {
			return err
		}
		if err := d.CMC().Load(op); err != nil {
			return fmt.Errorf("sim: loading %q into cube %d: %w", name, d.ID, err)
		}
	}
	return nil
}

// LoadCMCOp binds an already-constructed operation into every device.
// Operations holding state are shared across cubes; use LoadCMC for
// per-device instances.
func (s *Simulator) LoadCMCOp(op cmc.Operation) error {
	for _, d := range s.devs {
		if err := d.CMC().Load(op); err != nil {
			return fmt.Errorf("sim: loading %q into cube %d: %w", op.Str(), d.ID, err)
		}
	}
	return nil
}

// JTAG opens a JTAG port on one device.
func (s *Simulator) JTAG(cub int) (*jtag.Port, error) {
	d, err := s.Device(cub)
	if err != nil {
		return nil, err
	}
	return jtag.NewPort(d)
}

// Power returns the power model, or nil when the extension is disabled.
func (s *Simulator) Power() *power.Model { return s.pm }

// Metrics returns the registry attached via WithMetrics, or nil when
// metrics are disabled. Layers above (e.g. the workload engine) use it to
// register their own instruments against the same registry.
func (s *Simulator) Metrics() *metrics.Registry { return s.reg }

// Sampler returns the time-series sampler attached via WithSampler, or
// nil. Drivers use it to force a final sample at run end before flushing.
func (s *Simulator) Sampler() *metrics.Sampler { return s.sampler }

// Links returns the number of host links.
func (s *Simulator) Links() int { return s.cfg.Links }

// --- Request construction (the hmcsim_build_memrequest equivalent) ---

// ReqScratch is a reusable request builder for injection loops. Each
// Build call overwrites the scratch's embedded request and payload
// buffer and returns a pointer to them, so one scratch carries one
// request at a time. Reuse is safe because Send adopts the request by
// deep copy before returning (see device.Send); a driver thread
// therefore needs exactly one scratch, alive for the whole run, and
// issues every request through it without allocating.
//
// The zero value is ready to use.
type ReqScratch struct {
	req packet.Rqst
	buf [packet.MaxPayloadWords]uint64
}

// Payload returns the scratch's n-word payload buffer for the caller to
// fill before a Build call. Passing the returned slice back to Build is
// the idiomatic zero-copy use; any other slice is copied in.
func (s *ReqScratch) Payload(n int) []uint64 { return s.buf[:n] }

// fill overwrites the embedded request. data may alias s.buf (the
// Payload idiom); copy within one slice is well defined.
func (s *ReqScratch) fill(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, lng uint8, data []uint64) *packet.Rqst {
	var pl []uint64
	if len(data) > 0 {
		pl = s.buf[:len(data)]
		copy(pl, data)
	}
	s.req = packet.Rqst{
		Cmd: cmd, CUB: uint8(cub), ADRS: adrs, TAG: tag, SLID: uint8(link),
		LNG: lng, Payload: pl,
	}
	return &s.req
}

// Build is the one request constructor: like hmcsim_build_memrequest it
// takes the request command as an argument, so the caller names the
// read or write size, the atomic or the CMC slot it means. A cube the
// 3-bit CUB field cannot hold is refused (ErrBadCUB). Architected
// commands validate the payload against the command's registered
// request length (none for a read); CMC slots accept any whole-FLIT
// payload up to the longest packet's and carry its length in LNG (the
// bound operation's own length check applies at execution).
func (s *ReqScratch) Build(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	if !cmd.Valid() {
		return nil, fmt.Errorf("sim: invalid request command %v", cmd)
	}
	if cub < 0 || cub > packet.MaxCUB {
		return nil, fmt.Errorf("%w: CUB %d does not fit the 3-bit field", ErrBadCUB, cub)
	}
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("sim: payload must be whole FLITs, got %d words", len(payload))
	}
	if cmd.IsCMC() {
		if len(payload) > packet.MaxPayloadWords {
			return nil, fmt.Errorf("sim: %s payload %d words exceeds %d", cmd, len(payload), packet.MaxPayloadWords)
		}
		return s.fill(cmd, cub, adrs, tag, link, uint8(1+len(payload)/2), payload), nil
	}
	if want := 2 * (int(cmd.InfoRef().RqstFlits) - 1); len(payload) != want {
		return nil, fmt.Errorf("sim: %s payload %d words, want %d", cmd, len(payload), want)
	}
	return s.fill(cmd, cub, adrs, tag, link, 0, payload), nil
}

// Build builds a one-shot request on a scratch of its own, for callers
// outside an injection loop; the request and its payload belong to the
// caller.
func Build(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	return new(ReqScratch).Build(cmd, cub, adrs, tag, link, payload)
}

// ReleaseRsp returns a response obtained from Recv to the free list of
// the device that built it. Optional: unreleased responses are simply
// collected by the GC. The response (including its payload) must not be
// used after release. Release on the goroutine that drives the
// simulator, before the simulator changes hands (a session or server
// pool): the free list takes no locks. Releasing nil, a decoded
// response or an already released one does nothing.
func ReleaseRsp(r *packet.Rsp) { packet.PutRsp(r) }
