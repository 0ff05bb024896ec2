// Package hmcsim is a simulation platform for Hybrid Memory Cube (HMC)
// Gen2 devices with support for user-defined Custom Memory Cube (CMC)
// operations — a Go implementation of HMC-Sim 2.0 (Leidel and Chen,
// "HMC-Sim-2.0: A Simulation Platform for Exploring Custom Memory Cube
// Operations", IPDPS Workshops 2016).
//
// The package is a facade over the internal simulator packages; it
// re-exports everything a simulation driver needs:
//
//	s, err := hmcsim.New(hmcsim.FourLink4GB())
//	_ = s.LoadCMC("hmc_lock")   // bind a CMC op to command code 125
//	r, _ := hmcsim.BuildRead(0, 0x1000, tag, link, 64)
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
// registry name), Simulator.LoadCMCOp (a value), or LoadCMCScript (a .cmc
// file parsed by the script interpreter). The cmcops package ships the
// paper's mutex trio plus demonstration operations.
//
// # Evaluation harness
//
// RunMutex/MutexSweep reproduce the paper's Algorithm 1 evaluation
// (Figures 5-7, Table VI); RunStream, RunGUPS and RunBFS implement the
// supplementary kernels. The repository-level bench_test.go regenerates
// every table and figure of the paper.
package hmcsim

import (
	"repro/internal/cachemodel"
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
	"repro/internal/topo"
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
	// RespCmd enumerates response commands (RD_RS, WR_RS, RSP_CMC, ...).
	RespCmd = hmccmd.Resp
	// Device is one simulated cube.
	Device = device.Device
	// DeviceStats are the per-device lifetime counters.
	DeviceStats = device.Stats
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
	// CMCScript is a runtime-parsed .cmc operation program.
	CMCScript = script.Program
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
	// Agent is one simulated host thread driven by RunAgents.
	Agent = workload.Agent
	// MutexRun is one Figures 5-7 data point; MutexSweepResult is a full
	// sweep.
	MutexRun         = workload.MutexRun
	MutexSweepResult = workload.MutexSweepResult
	// TicketRun and RWResult summarize the expressive-lock extension
	// workloads.
	TicketRun = workload.TicketRun
	RWResult  = workload.RWResult
	// ReplayOp and ReplayResult belong to the trace-replay driver.
	ReplayOp     = workload.ReplayOp
	ReplayResult = workload.ReplayResult
	// PipelinedAgent is a host thread with multiple outstanding requests.
	PipelinedAgent = workload.PipelinedAgent
	// Session is a reusable simulator binding: one simulator serving many
	// workload runs, Reset in place between them. The sweep runners keep
	// one per worker; NewSession exposes the same reuse to custom drivers.
	Session = workload.Session
)

// Device configuration presets and constructors.
var (
	// FourLink4GB and EightLink8GB are the paper's §V-B evaluation
	// configurations; TwoGBDev is a small development configuration.
	FourLink4GB  = config.FourLink4GB
	EightLink8GB = config.EightLink8GB
	TwoGBDev     = config.TwoGBDev

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
	TopoSingle = topo.KindSingle
	TopoChain  = topo.KindChain
	TopoStar   = topo.KindStar
	TopoRing   = topo.KindRing
)

// Request builders (the hmcsim_build_memrequest equivalents).
var (
	BuildRead   = sim.BuildRead
	BuildWrite  = sim.BuildWrite
	BuildAtomic = sim.BuildAtomic
	BuildCMC    = sim.BuildCMC
	// DecodeRqst and DecodeRsp parse wire-form packets; the Into forms
	// decode into a caller-reused packet without allocating.
	DecodeRqst     = packet.DecodeRqst
	DecodeRsp      = packet.DecodeRsp
	DecodeRqstInto = packet.DecodeRqstInto
	DecodeRspInto  = packet.DecodeRspInto
	// ReleaseRsp returns a response from Recv to the packet pool
	// (optional; unreleased responses are garbage collected).
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
	TraceQueue   = trace.LevelQueue
	TraceLatency = trace.LevelLatency
	TraceStall   = trace.LevelStall
	TraceRqst    = trace.LevelRqst
	TraceRsp     = trace.LevelRsp
	TraceCMC     = trace.LevelCMC
	TracePower   = trace.LevelPower
	TraceAll     = trace.LevelAll
)

// CMC registry and script loading.
var (
	// RegisterCMCFactory publishes an operation constructor by name (the
	// shared-object install analogue); CMCNames lists what is available.
	RegisterCMCFactory = cmc.RegisterFactory
	CMCNames           = cmc.Names
	// ParseCMCScript and LoadCMCScriptFile bring externally authored .cmc
	// operations into the process at run time (the dlopen analogue).
	ParseCMCScript    = script.Parse
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
	// RunAgents drives a set of host threads against a simulator.
	RunAgents = workload.Run
	// RunMutex and MutexSweep reproduce the paper's Algorithm 1
	// evaluation.
	RunMutex   = workload.RunMutex
	MutexSweep = workload.MutexSweep
	// MutexSweepParallel spreads the sweep's independent simulations
	// across a bounded worker pool (workers <= 0 means one per
	// schedulable core, GOMAXPROCS), each worker reusing one simulator
	// session across its points, with results identical to — and
	// ordered like — MutexSweep.
	MutexSweepParallel = workload.MutexSweepParallel
	// MutexSweepWithProgress additionally invokes a (thread-safe)
	// callback per finished sweep point — the hook behind hmc-bench's
	// live metrics endpoint.
	MutexSweepWithProgress = workload.MutexSweepWithProgress
	// RunStream, RunGUPS and RunBFS run the supplementary kernels;
	// RunTicketMutex runs the expressive-locks extension workload.
	RunStream      = workload.RunStream
	RunGUPS        = workload.RunGUPS
	RunBFS         = workload.RunBFS
	RunTicketMutex = workload.RunTicketMutex
	// RunRWLock drives the reader-writer lock extension workload.
	RunRWLock = workload.RunRWLock
	// Trace replay (the 1.0 memtrace capability): parse/generate request
	// traces and replay them through a device.
	RunReplay           = workload.RunReplay
	ParseRequestTrace   = workload.ParseTrace
	WriteRequestTrace   = workload.WriteTrace
	GenerateStrideTrace = workload.GenerateStrideTrace
	GenerateRandomTrace = workload.GenerateRandomTrace
	// RunPipelined drives multi-outstanding agents; RunBandwidthProbe
	// sweeps achieved bandwidth against pipeline depth.
	RunPipelined      = workload.RunPipelined
	RunBandwidthProbe = workload.RunBandwidthProbe
	// NewSession builds a reusable simulator session: every driver has a
	// Session method form (Mutex, GUPS, Stream, ...) that Resets the one
	// simulator in place instead of rebuilding it per run, and
	// Session.Sim hands back the simulator for post-run reports. Reusable
	// reports whether an option set is eligible (construction-bound
	// options — tracing, power, metrics — are not).
	NewSession = workload.NewSession
	Reusable   = sim.Reusable
	// TableII computes the paper's AMO-efficiency comparison.
	TableII = cachemodel.TableII
)

// Observability: the unified metrics layer (registry, time-series
// sampler, live introspection endpoint).
type (
	// MetricsRegistry holds named instruments: atomic counters, gauges
	// and power-of-two histograms (zero-allocation hot path), plus pull
	// Func instruments evaluated at scrape time.
	MetricsRegistry = metrics.Registry
	// Metric is one registered instrument.
	Metric = metrics.Metric
	// MetricsLabel is one key=value metric dimension; build with MetricsL.
	MetricsLabel = metrics.Label
	// MetricsSampler snapshots a registry every N cycles into a JSONL
	// time series; attach with WithSampler.
	MetricsSampler = metrics.Sampler
	// MetricsSample is one parsed time-series record.
	MetricsSample = metrics.Sample
)

// Observability constructors and helpers.
var (
	// NewMetricsRegistry builds an empty registry; pass it to WithMetrics
	// to instrument a simulator.
	NewMetricsRegistry = metrics.NewRegistry
	// MetricsL builds one label.
	MetricsL = metrics.L
	// WithMetrics instruments a simulator's devices (and power model)
	// against a registry; WithSampler attaches a cycle-indexed sampler.
	WithMetrics = sim.WithMetrics
	WithSampler = sim.WithSampler
	// NewMetricsSampler builds a sampler over a registry; WithSamplerTags
	// stamps every sample with the run's static dimensions.
	NewMetricsSampler = metrics.NewSampler
	WithSamplerTags   = metrics.WithTags
	// ParseSamples reads a JSONL sample stream back;
	// MetricsIntervalReport tabulates one into per-interval occupancy,
	// bandwidth and power columns.
	ParseSamples          = metrics.ParseSamples
	MetricsIntervalReport = metrics.IntervalReport
	// WritePrometheus renders a registry in the Prometheus text format;
	// ServeMetrics starts the live introspection endpoint (/metrics,
	// /debug/vars, /debug/pprof/).
	WritePrometheus = metrics.WritePrometheus
	ServeMetrics    = metrics.Serve
)

// Request-lifecycle span tracing: the cycle-stamped flight recorder
// (internal/span) attributing each tracked request's latency to the
// pipeline stage it was spent in.
type (
	// SpanTracer is the flight recorder; build with NewSpanTracer and
	// attach with WithSpans. Simulator.Spans returns it after the run.
	SpanTracer = span.Tracer
	// SpanConfig sizes the recorder ring and selects TAG-modulo sampling
	// and the anomaly latency threshold.
	SpanConfig = span.Config
	// SpanEvent is one recorded lifecycle event.
	SpanEvent = span.Event
	// SpanKind identifies a lifecycle event type.
	SpanKind = span.Kind
	// SpanStage names one latency stage of the attribution table.
	SpanStage = span.StageID
	// SpanAttribution is the per-stage latency-attribution table
	// (cycles and % per stage, P50/P99 per request class).
	SpanAttribution = span.Attribution
)

// Span-tracing constructors and exporters.
var (
	// NewSpanTracer builds a flight recorder (preallocated ring; appends
	// never allocate).
	NewSpanTracer = span.New
	// WithSpans attaches a span tracer to a simulator; purely
	// observational, results stay bit-identical.
	WithSpans = sim.WithSpans
	// WriteSpanPerfetto converts a flight-recorder dump into
	// Chrome/Perfetto trace-event JSON (load at ui.perfetto.dev).
	WriteSpanPerfetto = span.WritePerfetto
	// SpanAttribute builds the per-stage attribution table from a dump.
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
// a full ring stalls the link (DeviceStats.RetryBufStalls).
const LinkRetrySlots = device.RetrySlots

// Reliability options, helpers and errors.
var (
	// WithFaults installs a fault plan on every device of the simulation.
	WithFaults = sim.WithFaults
	// ParseFaultKinds parses a comma-separated kind list ("crc,drop",
	// "all", "flip,down").
	ParseFaultKinds = fault.ParseKinds
	// ErrRetryTimeout reports a Simulator.SendWithRetry call that
	// exhausted its cycle budget against a persistently stalled link.
	ErrRetryTimeout = sim.ErrRetryTimeout
	// VerifyCRC checks an encoded packet's tail CRC, returning ErrBadCRC
	// on mismatch; RefreshCRC recomputes it after mutating wire words.
	VerifyCRC  = packet.VerifyCRC
	RefreshCRC = packet.RefreshCRC
	ErrBadCRC  = packet.ErrBadCRC
)

// Simulator-as-a-service: the session server hosts fleets of
// independent simulators behind a versioned line-delimited JSON
// protocol over TCP and Unix sockets (cmd/hmcd is the daemon wrapper,
// cmd/hmcd-load the load generator). See internal/server for the
// protocol specification.
type (
	// SessionServer hosts concurrent simulator sessions; every session
	// is pinned to one shard goroutine, so per-session requests
	// serialize without locks while sessions execute concurrently.
	SessionServer = server.Server
	// SessionServerConfig parameterizes a SessionServer (shard count,
	// session cap, idle TTL, simulator pool size, metrics registry).
	SessionServerConfig = server.Config
	// SessionClient speaks the wire protocol; one client multiplexes
	// any number of concurrent sessions over one connection.
	SessionClient = server.Client
	// SessionRequest and SessionResponse are the wire protocol's
	// request and response shapes.
	SessionRequest  = server.Request
	SessionResponse = server.Response
	// SessionOp enumerates the protocol operations.
	SessionOp = server.Op
	// SessionBatch accumulates ops for one session and executes them
	// as a single coalesced frame (SessionClient.NewBatch builds one).
	SessionBatch = server.Batch
)

var (
	// ServeSessions builds and starts a session server; attach
	// listeners with its Serve/ServeConn methods.
	ServeSessions = server.New
	// DialSessions connects a SessionClient to an hmcd endpoint.
	DialSessions = server.Dial
	// DialSessionsProto dials and negotiates a wire encoding
	// (SessionProtoJSON or SessionProtoBinary) in one step.
	DialSessionsProto = server.DialProto
	// NewSessionClient wraps an established connection (one end of a
	// net.Pipe works for in-process use).
	NewSessionClient = server.NewClient
)

// SessionProtocolVersion is the wire protocol version spoken by
// SessionServer and SessionClient.
const SessionProtocolVersion = server.Version

// Wire encodings a SessionClient can negotiate at hello time: the
// debuggable line-JSON default and the length-prefixed binary framing
// for hot co-simulation loops.
const (
	SessionProtoJSON   = server.ProtoJSON
	SessionProtoBinary = server.ProtoBinary
)
