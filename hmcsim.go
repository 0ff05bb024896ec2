// Package hmcsim is a simulation platform for Hybrid Memory Cube (HMC)
// Gen2 devices with support for user-defined Custom Memory Cube (CMC)
// operations — a Go implementation of HMC-Sim 2.0 (Leidel and Chen,
// "HMC-Sim-2.0: A Simulation Platform for Exploring Custom Memory Cube
// Operations", IPDPS Workshops 2016).
//
// The package is a facade over the internal simulator packages. It
// exports the paper's host API (§IV-A: init, send, recv, clock, load
// CMC, JTAG and trace) and the drivers, observers and session server
// that the commands, the examples and the README use; everything else
// stays internal. A Simulator is the whole simulation context: it owns
// the devices (WithDevices chains up to eight, §II), routes packets
// between them and keeps the one simulation clock. A minimal driver:
//
//	s, err := hmcsim.New(hmcsim.FourLink4GB())
//	_ = s.LoadCMC("hmc_lock")   // bind a CMC op to command code 125
//	r, _ := hmcsim.Build(hmccmd.RD64, 0, 0x1000, tag, link, nil)
//	_ = s.Send(link, r)
//	s.Clock()
//	rsp, ok := s.Recv(link)
//
// # Custom Memory Cube operations
//
// The Gen2 command space leaves 70 command codes unused; each is an
// hmcsim CMC slot. Operations implement the three-entry-point contract of
// the original simulator's dlopen interface (Register/Execute/Str; see
// CMCOperation) and are bound at run time with Simulator.LoadCMC (by
// registry name) or Simulator.LoadCMCOp (a value, such as the program
// LoadCMCScriptFile parses from a .cmc file). The cmcops package ships
// the paper's mutex trio plus demonstration operations, each a
// cmcops.Template: descriptor fields and an Execute body, with Register
// and Str supplied, as the paper's CMC template source supplies them.
//
// # Evaluation harness
//
// RunMutex/MutexSweep reproduce the paper's Algorithm 1 evaluation
// (Figures 5-7, Table VI); RunStream, RunGUPS and RunBFS implement the
// supplementary kernels, and a Session runs any of them repeatedly on
// one simulator. cmd/hmc-bench regenerates every table and figure of
// the paper.
package hmcsim

import (
	"repro/internal/cmc"
	"repro/internal/cmc/script"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core simulation types.
type (
	// Config describes one simulated device; see FourLink4GB and
	// EightLink8GB for the paper's evaluation presets.
	Config = config.Config
	// Simulator is a simulation context (the hmc_sim_t equivalent).
	Simulator = sim.Simulator
	// Option configures a Simulator at construction.
	Option = sim.Option
	// Rqst is a request packet; Rsp is a response packet.
	Rqst = packet.Rqst
	Rsp  = packet.Rsp
	// RqstCmd enumerates request commands (WR64, RD256, CMC125, ...).
	RqstCmd = hmccmd.Rqst
	// Device is one simulated cube.
	Device = device.Device
)

// CMC extension types.
type (
	// CMCOperation is the user-implemented operation contract
	// (cmc_register / cmc_execute / cmc_str).
	CMCOperation = cmc.Operation
	// CMCDescriptor carries the operation's static registration data
	// (paper Table III).
	CMCDescriptor = cmc.Descriptor
	// CMCExecContext carries the execution-function arguments (paper
	// Table IV).
	CMCExecContext = cmc.ExecContext
)

// Tracing types.
type (
	// Tracer is a trace sink; TraceEvent is one record.
	Tracer     = trace.Tracer
	TraceEvent = trace.Event
	TraceLevel = trace.Level
)

// Workload / evaluation types.
type (
	// MutexRun is one Figures 5-7 data point.
	MutexRun = workload.MutexRun
	// ReplayOp is one request of a trace for the replay driver.
	ReplayOp = workload.ReplayOp
	// Session is a reusable simulator binding: one simulator serving many
	// workload runs, Reset in place between them. The sweep runners keep
	// one per worker; NewSession exposes the same reuse to custom drivers.
	Session = workload.Session
)

// Device configuration presets and constructors.
var (
	// FourLink4GB and EightLink8GB are the paper's §V-B evaluation
	// configurations.
	FourLink4GB  = config.FourLink4GB
	EightLink8GB = config.EightLink8GB

	// New builds a simulation context.
	New = sim.New
	// WithTracer and WithDevices configure it.
	WithTracer  = sim.WithTracer
	WithDevices = sim.WithDevices
	// WithPowerModel enables the power extension, accumulating energy
	// into a caller-owned model (NewPowerModel).
	WithPowerModel = sim.WithPowerModel
	// WithEventClock selects the cycle scheduler. It defaults to true —
	// the event-driven calendar that fast-forwards provably idle spans
	// and skips quiescent cubes, bit-identical to per-cycle stepping.
	// WithEventClock(false) forces the per-cycle reference engine (the
	// topology-level analogue of the device ForceWalk escape hatch).
	WithEventClock = sim.WithEventClock
)

// Topology kinds for WithDevices.
const (
	TopoSingle = sim.KindSingle
	TopoChain  = sim.KindChain
	TopoStar   = sim.KindStar
	TopoRing   = sim.KindRing
)

// Request construction (the hmcsim_build_memrequest equivalent).
var (
	// Build builds one request for any command (RD64, WR16, INC8,
	// CMC125, ...); a ReqScratch builds them in a loop without
	// allocating.
	Build = sim.Build
	// DecodeRqstInto and DecodeRspInto parse wire-form packets into a
	// caller-reused packet without allocating.
	DecodeRqstInto = packet.DecodeRqstInto
	DecodeRspInto  = packet.DecodeRspInto
	// ReleaseRsp returns a response from Recv to the free list of the
	// device that built it (optional; unreleased responses are garbage
	// collected). Release on the goroutine that drives the simulator,
	// before the simulator changes hands.
	ReleaseRsp = sim.ReleaseRsp
)

// ReqScratch is a reusable request builder for allocation-free
// injection loops; see sim.ReqScratch. Simulator.SendWire and
// Simulator.RecvWire provide the matching encoded-packet (hmcsim_send /
// hmcsim_recv style) host interface.
type ReqScratch = sim.ReqScratch

// Trace sink constructors.
var (
	// NewTextTracer writes the human-readable line format through a
	// preallocated buffer with no fmt on the hot path; NewJSONLTracer
	// writes what hmc-trace reads. Call Flush on either when tracing is
	// done.
	NewTextTracer   = trace.NewText
	NewJSONLTracer  = trace.NewJSONL
	NewRecorder     = trace.NewRecorder
	ParseTraceLevel = trace.ParseLevel
)

// Trace levels.
const (
	TraceBank    = trace.LevelBank
	TraceLatency = trace.LevelLatency
	TraceStall   = trace.LevelStall
	TraceRqst    = trace.LevelRqst
	TraceRsp     = trace.LevelRsp
	TraceCMC     = trace.LevelCMC
	TraceAll     = trace.LevelAll
)

// CMC registry and script loading.
var (
	// RegisterCMCFactory publishes an operation constructor by name (the
	// shared-object install analogue); CMCNames lists what is available.
	RegisterCMCFactory = cmc.RegisterFactory
	CMCNames           = cmc.Names
	// LoadCMCScriptFile brings an externally authored .cmc operation
	// into the process at run time (the dlopen analogue).
	LoadCMCScriptFile = script.LoadFile
)

// Power model parameters and construction.
var (
	DefaultPowerParams = power.DefaultParams
	NewPowerModel      = power.New
)

// PowerModel accumulates per-component energy.
type PowerModel = power.Model

// Evaluation harness entry points.
var (
	// RunMutex and MutexSweep reproduce the paper's Algorithm 1
	// evaluation. MutexSweep spreads the sweep's independent simulations
	// across a bounded worker pool (workers <= 0 means one per
	// schedulable core, GOMAXPROCS; 1 runs the points in order), each
	// worker reusing one simulator session across its points, with
	// results identical to — and ordered like — a serial sweep. A
	// non-nil progress hook is called, possibly concurrently, once per
	// finished point. Options that bind per-construction state (a
	// tracer, span tracer, power model, metrics registry or sampler) run
	// the points one at a time on one worker, so those observers record
	// one simulator at a time.
	RunMutex   = workload.RunMutex
	MutexSweep = workload.MutexSweep
	// RunStream, RunGUPS and RunBFS run the supplementary kernels.
	RunStream = workload.RunStream
	RunGUPS   = workload.RunGUPS
	RunBFS    = workload.RunBFS
	// Trace replay (the 1.0 memtrace capability): parse or generate
	// request traces for Session.Replay.
	ParseRequestTrace   = workload.ParseTrace
	GenerateStrideTrace = workload.GenerateStrideTrace
	GenerateRandomTrace = workload.GenerateRandomTrace
	// NewSession builds a reusable simulator session: every driver has a
	// Session method form (Mutex, GUPS, Stream, Replay, ...) that Resets
	// the one simulator in place instead of rebuilding it per run, and
	// Session.Sim hands back the simulator for post-run reports.
	NewSession = workload.NewSession
)

// Observability: the unified metrics layer (registry, time-series
// sampler, live introspection endpoint).
type (
	// MetricsRegistry holds named instruments: atomic counters, gauges
	// and power-of-two histograms (zero-allocation hot path), plus pull
	// Func instruments evaluated at scrape time.
	MetricsRegistry = metrics.Registry
)

// Observability constructors and helpers.
var (
	// NewMetricsRegistry builds an empty registry; pass it to WithMetrics
	// to instrument a simulator.
	NewMetricsRegistry = metrics.NewRegistry
	// MetricsL builds one key=value metric label.
	MetricsL = metrics.L
	// WithMetrics instruments a simulator's devices (and power model)
	// against a registry; WithSampler attaches a cycle-indexed sampler.
	WithMetrics = sim.WithMetrics
	WithSampler = sim.WithSampler
	// NewMetricsSampler builds a sampler that snapshots a registry every
	// N cycles into a JSONL time series; WithSamplerTags stamps every
	// sample with the run's static dimensions.
	NewMetricsSampler = metrics.NewSampler
	WithSamplerTags   = metrics.WithTags
	// WritePrometheus renders a registry in the Prometheus text format.
	WritePrometheus = metrics.WritePrometheus
)

// Request-lifecycle span tracing: the cycle-stamped flight recorder
// (internal/span) attributing each tracked request's latency to the
// pipeline stage it was spent in.
type (
	// SpanConfig sizes the recorder ring and selects TAG-modulo sampling
	// and the anomaly latency threshold.
	SpanConfig = span.Config
)

// Span-tracing constructors.
var (
	// NewSpanTracer builds a flight recorder (preallocated ring; appends
	// never allocate); attach it with WithSpans and read it (Events,
	// Attribution) after the run.
	NewSpanTracer = span.New
	// WithSpans attaches a span tracer to a simulator; purely
	// observational, results stay bit-identical.
	WithSpans = sim.WithSpans
	// SpanAttribute builds the per-stage attribution table (cycles and %
	// per stage, P50/P99 per request class) from a dump.
	SpanAttribute = span.Attribute
)

// Workload modes.
const (
	GUPSBaseline = workload.GUPSBaseline
	GUPSAtomic   = workload.GUPSAtomic
	BFSBaseline  = workload.BFSBaseline
	BFSCMC       = workload.BFSCMC
)

// Reliability: seed-deterministic fault injection and the Gen2
// link-retry protocol.
type (
	// FaultPlan configures injection: a per-traversal Bernoulli rate, a
	// PRNG seed (the same seed reproduces the exact fault sequence), and
	// the kinds to draw from. Install with WithFaults or
	// Device.SetFaultPlan.
	FaultPlan = fault.Plan
	// FaultKind is a bitmask of fault categories.
	FaultKind = fault.Kind
)

// Fault kinds for FaultPlan.Kinds.
const (
	// FaultCRC flips a bit in a packet's CRC field; FaultFlip flips a
	// random wire bit. Both are caught by CRC verification and retried.
	FaultCRC  = fault.CRC
	FaultFlip = fault.Flip
	// FaultDrop discards a whole packet; the sender retransmits after a
	// timeout. FaultDown takes the link down for a transient window.
	FaultDrop = fault.Drop
	FaultDown = fault.Down
	FaultAll  = fault.All
)

// LinkRetrySlots is the depth of each direction's Gen2 retry buffer:
// packets await acknowledgement in a ring keyed by their 3-bit SEQ, and
// a full ring stalls the link (the RetryBufStalls field of
// Device.Stats).
const LinkRetrySlots = device.RetrySlots

// Reliability options, helpers and errors.
var (
	// WithFaults installs a fault plan on every device of the simulation.
	WithFaults = sim.WithFaults
	// ErrRetryTimeout reports a Simulator.SendWithRetry call that
	// exhausted its cycle budget against a persistently stalled link.
	ErrRetryTimeout = sim.ErrRetryTimeout
	// VerifyCRC checks an encoded packet's tail CRC, returning ErrBadCRC
	// on mismatch.
	VerifyCRC = packet.VerifyCRC
	ErrBadCRC = packet.ErrBadCRC
)

// Simulator-as-a-service: the session server hosts fleets of
// independent simulators behind a versioned line-delimited JSON
// protocol over TCP and Unix sockets (cmd/hmcd is the daemon wrapper,
// cmd/hmcd-load the load generator). See internal/server for the
// protocol specification.
type (
	// SessionServerConfig parameterizes ServeSessions (session cap, idle
	// TTL, simulator pool size, metrics registry).
	SessionServerConfig = server.Config
	// SessionClient speaks the wire protocol; one client multiplexes
	// any number of concurrent sessions over one connection.
	SessionClient = server.Client
	// SessionBatch accumulates ops for one session and executes them
	// as a single coalesced frame (SessionClient.NewBatch builds one).
	SessionBatch = server.Batch
)

var (
	// ServeSessions builds and starts a session server; attach
	// listeners with its Serve/ServeConn methods. Requests on one
	// connection execute in arrival order; requests on different
	// connections execute concurrently.
	ServeSessions = server.New
	// DialSessionsProto connects a SessionClient to an hmcd endpoint and
	// negotiates a wire encoding (SessionProtoJSON or SessionProtoBinary)
	// in one step.
	DialSessionsProto = server.DialProto
	// NewSessionClient wraps an established connection (one end of a
	// net.Pipe works for in-process use).
	NewSessionClient = server.NewClient
)

// Wire encodings a SessionClient can negotiate at hello time: the
// debuggable line-JSON default and the length-prefixed binary framing
// for hot co-simulation loops.
const (
	SessionProtoJSON   = server.ProtoJSON
	SessionProtoBinary = server.ProtoBinary
)
