// Package sim implements the simulation context — the hmc_sim_t
// equivalent tying devices, topology, tracing, the CMC registry and the
// optional power extension behind one host-facing API:
//
//	s, _ := sim.New(config.FourLink4GB())
//	_ = s.LoadCMC("hmc_lock")                      // hmc_load_cmc()
//	r, _ := sim.BuildRead(0, addr, tag, link, 64)  // hmcsim_build_memrequest()
//	_ = s.Send(link, r)                            // hmcsim_send()
//	s.Clock()                                      // hmcsim_clock()
//	rsp, ok := s.Recv(link)                        // hmcsim_recv()
//
// The API mirrors the C library's call structure (paper §IV-A "API
// Compatibility") so simulation drivers written against HMC-Sim translate
// mechanically.
package sim

import (
	"errors"
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
	"repro/internal/topo"
	"repro/internal/trace"
)

// ErrBadSize reports a read/write size with no architected command.
var ErrBadSize = errors.New("sim: no command for requested size")

type options struct {
	tracer      trace.Tracer
	devices     int
	kind        topo.Kind
	powerParams *power.Params
	powerModel  *power.Model
	observer    func(*Simulator)
	metricsReg  *metrics.Registry
	sampler     *metrics.Sampler
	faultPlan   *fault.Plan
	eventOff    bool
	spans       *span.Tracer
}

// Option configures a Simulator.
type Option func(*options)

// WithTracer attaches a trace sink.
func WithTracer(t trace.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithDevices simulates n chained devices wired as kind.
func WithDevices(n int, kind topo.Kind) Option {
	return func(o *options) { o.devices = n; o.kind = kind }
}

// WithPower enables the power extension with the given coefficients.
func WithPower(p power.Params) Option {
	return func(o *options) { o.powerParams = &p }
}

// WithPowerModel enables the power extension accumulating into a model
// the caller retains — useful when the simulator is constructed inside a
// workload runner.
func WithPowerModel(m *power.Model) Option {
	return func(o *options) { o.powerModel = m }
}

// WithObserver calls fn with the simulator as soon as it is constructed,
// giving the caller a handle even when construction happens inside a
// workload runner (for post-run device reports, JTAG pokes, etc.).
func WithObserver(fn func(*Simulator)) Option {
	return func(o *options) { o.observer = fn }
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

// WithSampler attaches a cycle-indexed time-series sampler: every Clock
// calls MaybeSample, which snapshots the metrics registry whenever the
// cycle lands on the sampler's period (a single modulo check otherwise).
// Combine with WithMetrics on the same registry; the caller flushes the
// sampler when the run ends.
func WithSampler(sm *metrics.Sampler) Option {
	return func(o *options) { o.sampler = sm }
}

// WithSpans attaches a request-lifecycle span tracer (span.New): every
// device and the topology record cycle-stamped pipeline-stage events
// for the requests the tracer samples, into its fixed-capacity flight
// recorder. Purely observational — simulation results are bit-identical
// with spans on or off — and with no tracer attached the hot path pays
// a single nil check per hook. When combined with WithMetrics, the
// tracer also feeds per-stage hmc_stage_cycles histograms into the
// registry.
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

// Simulator is one simulation context.
type Simulator struct {
	cfg       config.Config
	topo      *topo.Topology
	pm        *power.Model
	reg       *metrics.Registry
	sampler   *metrics.Sampler
	faultPlan fault.Plan
	spans     *span.Tracer
	cycle     uint64

	// Wire-level scratch: SendWire decodes into wireRqst (adopted by the
	// device before SendWire returns); RecvWire encodes into wire, which
	// is retained and reused across calls.
	wireRqst packet.Rqst
	wire     []uint64
}

// New builds a simulation context for identically configured devices.
func New(cfg config.Config, opts ...Option) (*Simulator, error) {
	o := options{devices: 1, kind: topo.KindSingle}
	for _, opt := range opts {
		opt(&o)
	}
	tp, err := topo.New(o.kind, o.devices, cfg, o.tracer)
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, topo: tp}
	if o.eventOff {
		tp.SetEventDriven(false)
	}
	if o.powerModel != nil {
		s.pm = o.powerModel
	} else if o.powerParams != nil {
		s.pm = power.New(*o.powerParams)
	}
	if s.pm != nil {
		for _, d := range tp.Devices() {
			d.ExecHook = s.pm.ChargeRequest
		}
	}
	if o.faultPlan != nil {
		s.faultPlan = *o.faultPlan
		for _, d := range tp.Devices() {
			if err := d.SetFaultPlan(*o.faultPlan); err != nil {
				return nil, err
			}
		}
	}
	if o.spans != nil {
		s.spans = o.spans
		tp.SetSpans(o.spans)
	}
	if o.metricsReg != nil {
		s.reg = o.metricsReg
		for _, d := range tp.Devices() {
			d.RegisterMetrics(s.reg)
		}
		if s.pm != nil {
			s.pm.RegisterMetrics(s.reg)
		}
		if s.spans != nil {
			s.spans.RegisterMetrics(s.reg)
		}
	}
	s.sampler = o.sampler
	if o.observer != nil {
		o.observer(s)
	}
	return s, nil
}

// Config returns the per-device configuration.
func (s *Simulator) Config() config.Config { return s.cfg }

// Cycle returns the current simulation cycle.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// Clock advances the whole simulation one cycle (hmcsim_clock).
func (s *Simulator) Clock() {
	s.cycle++
	s.topo.Clock()
	if s.pm != nil {
		s.pm.ChargeCycles(uint64(len(s.topo.Devices())))
	}
	if s.sampler != nil {
		s.sampler.MaybeSample(s.cycle)
	}
}

// ClockN advances the simulation n cycles — the batched clock driver.
// Hosts that clock without per-cycle work (draining a known-latency
// pipeline, idling a device, benchmark loops) amortize the per-cycle
// facade dispatch: with no power model or sampler attached the whole
// batch runs inside the topology (whose single-cube fast path skips the
// forwarding scans) and idle spans collapse into single jumps. Results
// are identical to calling Clock n times.
func (s *Simulator) ClockN(n uint64) {
	if s.pm == nil && s.sampler == nil {
		s.cycle += n
		s.topo.ClockN(n)
		return
	}
	for i := uint64(0); i < n; i++ {
		s.Clock()
	}
}

// SetEventDriven toggles the event-driven cycle scheduler at runtime —
// the method form of WithEventClock, for drivers that flip modes
// between runs (e.g. the equivalence suite's reference pass).
func (s *Simulator) SetEventDriven(on bool) { s.topo.SetEventDriven(on) }

// RspAvailable reports whether a Recv on some host link would succeed
// right now — the polling primitive behind run-until-event drivers.
func (s *Simulator) RspAvailable() bool { return s.topo.RspAvailable() }

// ClockUntilRecv advances the simulation until a response is available
// on some host link or budget cycles have elapsed, returning the cycles
// advanced (at least one when budget permits). It is the run-until-event
// clock driver: with no power model or sampler attached the whole span
// runs inside the topology's event scheduler, which jumps provably-idle
// and fault-parked stretches in one step but never past the cycle a
// response surfaces — so a caller polling Recv afterwards observes
// responses on exactly the cycle a clock-and-poll-every-cycle loop
// would. With a power model or sampler attached (both do strictly
// per-cycle work) it degrades to per-cycle stepping with the same early
// exit, keeping results identical in every configuration.
func (s *Simulator) ClockUntilRecv(budget uint64) uint64 {
	if s.pm == nil && s.sampler == nil {
		adv := s.topo.ClockUntilRecv(budget)
		s.cycle += adv
		return adv
	}
	var adv uint64
	for adv < budget {
		s.Clock()
		adv++
		if s.topo.RspAvailable() {
			break
		}
	}
	return adv
}

// Reset rewinds the simulation to its as-constructed state without
// reallocating any of it: the topology, every device's queues, retry
// rings, banks, registers, statistics, fault-injector streams and the
// backing store all return to cycle zero in place (topo.Reset,
// device.Reset). CMC registrations survive — the shipped operations are
// stateless, so a reused simulator with its table already loaded is
// bit-identical, in every statistic and packet, to a fresh one that
// just called LoadCMC (the reset bit-identity suite pins this).
//
// Reset is the sweep fast path: constructing a simulator costs dozens
// of allocations and megabytes of queue backing; Resetting one costs
// none. It is intended for simulators that satisfy Reusable — per-run
// state bound at construction (tracer buffers, power models, metrics
// registries, samplers, observers) is NOT rewound and would accumulate
// across runs.
func (s *Simulator) Reset() {
	s.cycle = 0
	s.topo.Reset()
}

// Trim releases the reusable capacity Reset keeps warm — every device's
// materialized store pages (scrubbed back to the process-wide page pool)
// and packet free lists — shrinking an idle simulator toward its freshly
// built footprint. Call it after Reset on a simulator headed for an idle
// pool; capacity re-materializes on demand when the simulator next runs.
// Trim never touches run-visible state, so Reset+Trim stays bit-identical
// to a fresh simulator.
func (s *Simulator) Trim() {
	for _, d := range s.topo.Devices() {
		d.Trim()
	}
}

// Reusable reports whether a simulator built with these options can be
// recycled with Reset between runs without observable state carrying
// over. Fault plans, event-mode selection and multi-device topologies
// are all reset-safe; tracers, power models, metrics registries,
// samplers and observers bind per-construction state (or fire
// construction-time callbacks) and are not. The pooled
// sweep runners consult this to decide between session reuse and
// fresh-per-point construction.
func Reusable(opts ...Option) bool {
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	return o.tracer == nil && o.powerParams == nil && o.powerModel == nil &&
		o.observer == nil && o.metricsReg == nil && o.sampler == nil &&
		o.spans == nil
}

// Close does nothing: a simulator runs entirely on its caller's
// goroutine and holds nothing but memory, which the garbage collector
// reclaims. It stays so that drivers which defer Close keep compiling;
// new code need not call it.
func (s *Simulator) Close() {}

// Send submits a request on a host link (hmcsim_send); the request's CUB
// field selects the target cube. A full link queue returns
// device.ErrStall.
func (s *Simulator) Send(link int, r *packet.Rqst) error {
	return s.topo.Send(link, r)
}

// Recv pops the next response from a host link (hmcsim_recv).
func (s *Simulator) Recv(link int) (*packet.Rsp, bool) {
	return s.topo.Recv(link)
}

// SendWire submits an encoded request packet — the C library's
// hmcsim_send shape, where the host hands over raw uint64 words. The
// packet is CRC-checked and decoded into an internal scratch the device
// adopts before SendWire returns, so the caller's buffer is free for
// reuse immediately.
func (s *Simulator) SendWire(link int, words []uint64) error {
	if err := packet.DecodeRqstInto(&s.wireRqst, words); err != nil {
		return err
	}
	return s.topo.Send(link, &s.wireRqst)
}

// RecvWire pops the next response as encoded packet words — the C
// library's hmcsim_recv shape. The returned slice is an internal scratch
// valid until the next RecvWire call on this simulator; the backing
// response object is recycled before RecvWire returns.
func (s *Simulator) RecvWire(link int) ([]uint64, bool) {
	rsp, ok := s.topo.Recv(link)
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
	for _, d := range s.topo.Devices() {
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
	for _, d := range s.topo.Devices() {
		if err := d.CMC().Load(op); err != nil {
			return fmt.Errorf("sim: loading %q into cube %d: %w", op.Str(), d.ID, err)
		}
	}
	return nil
}

// Device returns one device by CUB.
func (s *Simulator) Device(cub int) (*device.Device, error) {
	return s.topo.Device(cub)
}

// Devices returns all simulated devices.
func (s *Simulator) Devices() []*device.Device { return s.topo.Devices() }

// JTAG opens a JTAG port on one device.
func (s *Simulator) JTAG(cub int) (*jtag.Port, error) {
	d, err := s.topo.Device(cub)
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

// Spans returns the request-lifecycle span tracer attached via
// WithSpans, or nil when span tracing is disabled. Drivers dump its
// flight recorder (Events, WritePerfetto) or attribution table
// (Attribution) after the run.
func (s *Simulator) Spans() *span.Tracer { return s.spans }

// Links returns the number of host links.
func (s *Simulator) Links() int { return s.cfg.Links }

// --- Request builders (the hmcsim_util build_memrequest equivalents) ---

// readCmdFor maps a byte count onto the architected read command.
func readCmdFor(n int) (hmccmd.Rqst, error) {
	switch n {
	case 16:
		return hmccmd.RD16, nil
	case 32:
		return hmccmd.RD32, nil
	case 48:
		return hmccmd.RD48, nil
	case 64:
		return hmccmd.RD64, nil
	case 80:
		return hmccmd.RD80, nil
	case 96:
		return hmccmd.RD96, nil
	case 112:
		return hmccmd.RD112, nil
	case 128:
		return hmccmd.RD128, nil
	case 256:
		return hmccmd.RD256, nil
	default:
		return 0, fmt.Errorf("%w: read of %d bytes", ErrBadSize, n)
	}
}

// writeCmdFor maps a byte count onto the architected write command. A
// switch rather than a lookup table: this sits on the injection fast
// path, where a map literal would be rebuilt on every call.
func writeCmdFor(n int, posted bool) (hmccmd.Rqst, error) {
	var cmd hmccmd.Rqst
	switch n {
	case 16:
		cmd = hmccmd.WR16
	case 32:
		cmd = hmccmd.WR32
	case 48:
		cmd = hmccmd.WR48
	case 64:
		cmd = hmccmd.WR64
	case 80:
		cmd = hmccmd.WR80
	case 96:
		cmd = hmccmd.WR96
	case 112:
		cmd = hmccmd.WR112
	case 128:
		cmd = hmccmd.WR128
	case 256:
		cmd = hmccmd.WR256
	default:
		return 0, fmt.Errorf("%w: write of %d bytes", ErrBadSize, n)
	}
	if posted {
		switch cmd {
		case hmccmd.WR16:
			cmd = hmccmd.PWR16
		case hmccmd.WR32:
			cmd = hmccmd.PWR32
		case hmccmd.WR48:
			cmd = hmccmd.PWR48
		case hmccmd.WR64:
			cmd = hmccmd.PWR64
		case hmccmd.WR80:
			cmd = hmccmd.PWR80
		case hmccmd.WR96:
			cmd = hmccmd.PWR96
		case hmccmd.WR112:
			cmd = hmccmd.PWR112
		case hmccmd.WR128:
			cmd = hmccmd.PWR128
		case hmccmd.WR256:
			cmd = hmccmd.PWR256
		}
	}
	return cmd, nil
}

// BuildRead builds an n-byte read request.
func BuildRead(cub int, adrs uint64, tag uint16, link, n int) (*packet.Rqst, error) {
	cmd, err := readCmdFor(n)
	if err != nil {
		return nil, err
	}
	return &packet.Rqst{Cmd: cmd, CUB: uint8(cub), ADRS: adrs, TAG: tag, SLID: uint8(link)}, nil
}

// BuildWrite builds a write request carrying data (whose length selects
// the command); posted selects the no-response form.
func BuildWrite(cub int, adrs uint64, tag uint16, link int, data []uint64, posted bool) (*packet.Rqst, error) {
	cmd, err := writeCmdFor(len(data)*8, posted)
	if err != nil {
		return nil, err
	}
	return &packet.Rqst{
		Cmd: cmd, CUB: uint8(cub), ADRS: adrs, TAG: tag, SLID: uint8(link),
		Payload: append([]uint64(nil), data...),
	}, nil
}

// BuildAtomic builds an atomic memory operation request; payload carries
// the operands required by the command (nil for INC8/P_INC8).
func BuildAtomic(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	info := cmd.Info()
	if info.Class != hmccmd.ClassAtomic && info.Class != hmccmd.ClassPostedAtomic {
		return nil, fmt.Errorf("sim: %s is not an atomic command", info.Name)
	}
	if want := 2 * (int(info.RqstFlits) - 1); len(payload) != want {
		return nil, fmt.Errorf("sim: %s payload %d words, want %d", info.Name, len(payload), want)
	}
	return &packet.Rqst{
		Cmd: cmd, CUB: uint8(cub), ADRS: adrs, TAG: tag, SLID: uint8(link),
		Payload: append([]uint64(nil), payload...),
	}, nil
}

// BuildCMC builds a request for a CMC command slot. The request length is
// 1 FLIT plus one FLIT per two payload words, matching the bound
// operation's registered rqst_len.
func BuildCMC(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	if !cmd.IsCMC() {
		return nil, fmt.Errorf("sim: %v is not a CMC slot", cmd)
	}
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("sim: CMC payload must be whole FLITs, got %d words", len(payload))
	}
	return &packet.Rqst{
		Cmd: cmd, CUB: uint8(cub), ADRS: adrs, TAG: tag, SLID: uint8(link),
		LNG:     uint8(1 + len(payload)/2),
		Payload: append([]uint64(nil), payload...),
	}, nil
}

// --- Reusable request scratch (the zero-allocation injection path) ---

// ReqScratch is a reusable request builder for injection loops. Each
// builder call overwrites the scratch's embedded request and payload
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
// fill before a Build call. Passing the returned slice back to
// BuildWrite/BuildAtomic/BuildCMC is the idiomatic zero-copy use; any
// other slice is copied in.
func (s *ReqScratch) Payload(n int) []uint64 { return s.buf[:n] }

// Owns reports whether r is this scratch's embedded request — how a
// pipelined driver maps a completed request back to the scratch that
// built it.
func (s *ReqScratch) Owns(r *packet.Rqst) bool { return r == &s.req }

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

// BuildRead is the scratch-backed equivalent of BuildRead.
func (s *ReqScratch) BuildRead(cub int, adrs uint64, tag uint16, link, n int) (*packet.Rqst, error) {
	cmd, err := readCmdFor(n)
	if err != nil {
		return nil, err
	}
	return s.fill(cmd, cub, adrs, tag, link, 0, nil), nil
}

// BuildWrite is the scratch-backed equivalent of BuildWrite.
func (s *ReqScratch) BuildWrite(cub int, adrs uint64, tag uint16, link int, data []uint64, posted bool) (*packet.Rqst, error) {
	cmd, err := writeCmdFor(len(data)*8, posted)
	if err != nil {
		return nil, err
	}
	return s.fill(cmd, cub, adrs, tag, link, 0, data), nil
}

// BuildAtomic is the scratch-backed equivalent of BuildAtomic.
func (s *ReqScratch) BuildAtomic(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	info := cmd.Info()
	if info.Class != hmccmd.ClassAtomic && info.Class != hmccmd.ClassPostedAtomic {
		return nil, fmt.Errorf("sim: %s is not an atomic command", info.Name)
	}
	if want := 2 * (int(info.RqstFlits) - 1); len(payload) != want {
		return nil, fmt.Errorf("sim: %s payload %d words, want %d", info.Name, len(payload), want)
	}
	return s.fill(cmd, cub, adrs, tag, link, 0, payload), nil
}

// Build is the generic scratch builder: any valid request command with
// an explicit payload — the injection shape of a protocol frontend
// that receives (command code, address, payload) over the wire rather
// than choosing a command from an operation kind. Architected commands
// validate the payload against the command's registered request
// length; CMC slots accept any whole-FLIT payload (the bound
// operation's own length check applies at execution), matching
// BuildCMC.
func (s *ReqScratch) Build(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	if !cmd.Valid() {
		return nil, fmt.Errorf("sim: invalid request command %v", cmd)
	}
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("sim: payload must be whole FLITs, got %d words", len(payload))
	}
	if cmd.IsCMC() {
		return s.fill(cmd, cub, adrs, tag, link, uint8(1+len(payload)/2), payload), nil
	}
	if want := 2 * (int(cmd.InfoRef().RqstFlits) - 1); len(payload) != want {
		return nil, fmt.Errorf("sim: %s payload %d words, want %d", cmd, len(payload), want)
	}
	return s.fill(cmd, cub, adrs, tag, link, 0, payload), nil
}

// BuildCMC is the scratch-backed equivalent of BuildCMC.
func (s *ReqScratch) BuildCMC(cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, link int, payload []uint64) (*packet.Rqst, error) {
	if !cmd.IsCMC() {
		return nil, fmt.Errorf("sim: %v is not a CMC slot", cmd)
	}
	if len(payload)%2 != 0 {
		return nil, fmt.Errorf("sim: CMC payload must be whole FLITs, got %d words", len(payload))
	}
	return s.fill(cmd, cub, adrs, tag, link, uint8(1+len(payload)/2), payload), nil
}

// ReleaseRsp returns a response obtained from Recv to the packet pool.
// Optional: unreleased responses are simply collected by the GC. The
// response (including its payload) must not be used after release.
func ReleaseRsp(r *packet.Rsp) { packet.PutRsp(r) }
