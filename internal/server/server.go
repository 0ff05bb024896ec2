package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config parameterizes a Server. The zero value serves with defaults.
type Config struct {
	// Shards is the number of session-owning goroutines. Each session
	// is pinned to one shard (sess % Shards), so requests against one
	// session serialize without locks while distinct sessions execute
	// concurrently. 0 = GOMAXPROCS.
	Shards int
	// MaxSessions caps concurrently live sessions fleet-wide
	// (0 = DefaultMaxSessions).
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long. Eviction is
	// identical to close: the handle dies (no_session), the simulator
	// returns to the pool. 0 disables eviction.
	IdleTTL time.Duration
	// SweepEvery is the eviction sweep period (0 = IdleTTL/4, floored
	// at 10ms).
	SweepEvery time.Duration
	// MaxClockBatch caps clockn's n per request (0 = DefaultMaxClockBatch).
	MaxClockBatch uint64
	// MaxRecvBudget caps clock_until_recv's budget per request
	// (0 = DefaultMaxRecvBudget).
	MaxRecvBudget uint64
	// MaxLineBytes caps one request line (0 = DefaultMaxLineBytes).
	MaxLineBytes int
	// ConnWriteDepth is the per-connection pipelined-response queue; a
	// client that stops reading past this depth is disconnected rather
	// than allowed to wedge a shard (0 = DefaultConnWriteDepth).
	ConnWriteDepth int
	// PoolCap bounds idle pooled simulators across all presets
	// (0 = DefaultPoolCap, <0 disables pooling).
	PoolCap int
	// Presets extends (or overrides) the built-in preset table.
	Presets map[string]config.Config
	// Registry receives the server's instruments; nil uses a private
	// registry (Metrics exposes it either way).
	Registry *metrics.Registry
}

// Defaults for Config's zero fields.
const (
	DefaultMaxSessions    = 1 << 16
	DefaultMaxClockBatch  = 1 << 20
	DefaultMaxRecvBudget  = 1 << 22
	DefaultMaxLineBytes   = 1 << 16
	DefaultConnWriteDepth = 1 << 12
	DefaultPoolCap        = 1 << 10
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.IdleTTL / 4
		if c.SweepEvery < 10*time.Millisecond {
			c.SweepEvery = 10 * time.Millisecond
		}
	}
	if c.MaxClockBatch == 0 {
		c.MaxClockBatch = DefaultMaxClockBatch
	}
	if c.MaxRecvBudget == 0 {
		c.MaxRecvBudget = DefaultMaxRecvBudget
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = DefaultMaxLineBytes
	}
	if c.ConnWriteDepth <= 0 {
		c.ConnWriteDepth = DefaultConnWriteDepth
	}
	if c.PoolCap == 0 {
		c.PoolCap = DefaultPoolCap
	}
	return c
}

// normalizePreset canonicalizes a preset name: case-insensitive,
// separator-insensitive ("4Link-4GB", "4link-4gb" and "4link4gb" are
// the same preset).
func normalizePreset(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c + 'a' - 'A')
		case c == '-' || c == '_' || c == ' ':
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// builtinPresets returns the paper's three configurations under their
// canonical wire names.
func builtinPresets() map[string]config.Config {
	return map[string]config.Config{
		"4link4gb": config.FourLink4GB(),
		"8link8gb": config.EightLink8GB(),
		"2gbdev":   config.TwoGBDev(),
	}
}

// session is one hosted simulator, owned exclusively by its shard
// goroutine — no field is accessed from any other goroutine.
type session struct {
	id      uint64
	preset  string
	sim     *sim.Simulator
	scratch sim.ReqScratch
	// cmcNames/cmcCodes track LoadCMC bindings: names make loadcmc
	// idempotent per session; codes let release scrub the table before
	// the simulator is pooled for its next tenant.
	cmcNames []string
	cmcCodes []uint8
	// lastOp is the UnixNano of the last request, for idle eviction.
	lastOp int64
}

// task is one unit of shard work: a decoded request bound to the
// connection that must receive its response, or an eviction sweep tick.
type task struct {
	op  Op
	req *Request
	c   *conn
	// bin marks a request that arrived on a binary-mode connection; its
	// response is encoded in the same framing.
	bin   bool
	sweep bool
	now   int64
}

type shard struct {
	srv      *Server
	ch       chan task
	sessions map[uint64]*session
	// brsps and brefs are the shard's batch scratch: the coalesced
	// sub-response slice and the pooled response packets whose payloads
	// it aliases until the frame is encoded. Both recycle across batches
	// — the batch hot path allocates nothing on the shard.
	brsps []Response
	brefs []*packet.Rsp
}

// Server hosts simulator sessions behind the line-JSON protocol.
type Server struct {
	cfg     Config
	presets map[string]config.Config
	shards  []*shard
	pool    simPool
	met     serverMetrics
	reg     *metrics.Registry

	nextSess atomic.Uint64
	active   atomic.Int64

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[*conn]struct{}
	closed    bool
	stop      chan struct{}

	shardWG sync.WaitGroup
	sweepWG sync.WaitGroup
	connWG  sync.WaitGroup
}

type serverMetrics struct {
	sessionsActive *metrics.Gauge
	sessionsOpened *metrics.Counter
	sessionsClosed *metrics.Counter
	evictions      *metrics.Counter
	protoErrs      *metrics.Counter
	connsActive    *metrics.Gauge
	connsOpened    *metrics.Counter
	connsDropped   *metrics.Counter
	ops            [NumOps]*metrics.Counter
	opLat          [NumOps]*metrics.Histogram
}

// New builds and starts a Server: shard goroutines and (when IdleTTL is
// set) the eviction sweeper run immediately; attach transports with
// Serve/ServeConn.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	srv := &Server{
		cfg:     cfg,
		presets: builtinPresets(),
		reg:     reg,
		conns:   make(map[*conn]struct{}),
		stop:    make(chan struct{}),
	}
	for name, c := range cfg.Presets {
		srv.presets[normalizePreset(name)] = c
	}
	srv.pool.cap = cfg.PoolCap
	srv.pool.idle = make(map[string][]pooledSim)

	m := &srv.met
	m.sessionsActive = reg.Gauge("hmc_server_sessions_active")
	m.sessionsOpened = reg.Counter("hmc_server_sessions_opened_total")
	m.sessionsClosed = reg.Counter("hmc_server_sessions_closed_total")
	m.evictions = reg.Counter("hmc_server_sessions_evicted_total")
	m.protoErrs = reg.Counter("hmc_server_protocol_errors_total")
	m.connsActive = reg.Gauge("hmc_server_conns_active")
	m.connsOpened = reg.Counter("hmc_server_conns_opened_total")
	m.connsDropped = reg.Counter("hmc_server_conns_dropped_total")
	for op := Op(0); op < NumOps; op++ {
		l := metrics.L("op", op.String())
		m.ops[op] = reg.Counter("hmc_server_ops_total", l)
		m.opLat[op] = reg.Histogram("hmc_server_op_latency_ns", l)
	}
	reg.GaugeFunc("hmc_server_pool_idle", func() float64 {
		return float64(srv.pool.size())
	})

	srv.shards = make([]*shard, cfg.Shards)
	for i := range srv.shards {
		sh := &shard{
			srv:      srv,
			ch:       make(chan task, 256),
			sessions: make(map[uint64]*session),
		}
		srv.shards[i] = sh
		srv.shardWG.Add(1)
		go sh.run()
	}
	if cfg.IdleTTL > 0 {
		srv.sweepWG.Add(1)
		go srv.sweeper()
	}
	return srv
}

// Metrics returns the registry holding the server's instruments (the
// one passed in Config, or the private default).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ActiveSessions reports the number of live sessions.
func (s *Server) ActiveSessions() int { return int(s.active.Load()) }

// Serve accepts connections on ln until the listener is closed (by
// Server.Close or externally). It returns nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.ServeConn(nc)
	}
}

// ServeConn attaches one established connection (TCP, Unix socket, or
// an in-process net.Pipe end) and returns immediately; the connection's
// reader and writer run on their own goroutines.
func (s *Server) ServeConn(nc net.Conn) {
	c := &conn{
		srv:  s,
		nc:   nc,
		out:  make(chan []byte, s.cfg.ConnWriteDepth),
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.met.connsOpened.Inc()
	s.met.connsActive.Add(1)
	s.connWG.Add(2)
	go c.readLoop()
	go c.writeLoop()
}

// Close shuts the server down: listeners close, connections drop,
// shards drain their queued requests and release every live session's
// simulator. Close is idempotent and safe to call concurrently.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	lns := s.listeners
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	s.sweepWG.Wait()
	for _, c := range conns {
		c.drop()
	}
	// Readers exit (their connections are dead), so no producer can
	// touch shard channels once connWG drains; then the shards flush
	// and tear down their sessions.
	s.connWG.Wait()
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.shardWG.Wait()
	s.pool.drain()
	return nil
}

// forget removes a finished connection from the registry.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	_, live := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if live {
		s.met.connsActive.Add(-1)
	}
}

// sweeper periodically offers every shard an eviction tick. A shard too
// busy to take the tick skips that round — eviction is best-effort
// housekeeping, never backpressure.
func (s *Server) sweeper() {
	defer s.sweepWG.Done()
	tick := time.NewTicker(s.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			for _, sh := range s.shards {
				select {
				case sh.ch <- task{sweep: true, now: now.UnixNano()}:
				default:
				}
			}
		}
	}
}

func (sh *shard) run() {
	defer sh.srv.shardWG.Done()
	for t := range sh.ch {
		if t.sweep {
			sh.sweepIdle(t.now)
			continue
		}
		sh.exec(t)
	}
	// Shutdown: every remaining session releases its simulator.
	for _, ss := range sh.sessions {
		sh.release(ss)
	}
	sh.sessions = nil
}

// sweepIdle closes sessions idle past the TTL. An evicted session is
// indistinguishable from a closed one: the handle answers no_session
// and the simulator is already serving (or pooled for) someone else.
func (sh *shard) sweepIdle(now int64) {
	ttl := int64(sh.srv.cfg.IdleTTL)
	for id, ss := range sh.sessions {
		if now-ss.lastOp > ttl {
			delete(sh.sessions, id)
			sh.release(ss)
			sh.srv.met.evictions.Inc()
			sh.srv.met.sessionsClosed.Inc()
		}
	}
}

// release scrubs a session's CMC bindings and hands its simulator to
// the pool (Reset-in-place), or drops it when the pool is full.
func (sh *shard) release(ss *session) {
	sh.srv.active.Add(-1)
	sh.srv.met.sessionsActive.Add(-1)
	for _, code := range ss.cmcCodes {
		for _, d := range ss.sim.Devices() {
			d.CMC().Unload(code)
		}
	}
	sh.srv.pool.put(ss.preset, ss.sim)
	ss.sim = nil
}

// exec runs one request to completion: the session lookup, the
// simulator call, the response encode, and the hand-off to the
// connection writer — all on the shard goroutine, with no locks taken
// on the session.
func (sh *shard) exec(t task) {
	start := time.Now()
	var rsp Response
	rsp.ID = t.req.ID
	rsp.OK = true

	switch {
	case t.op == OpInit:
		sh.execInit(t.req, &rsp)
	case t.op == OpBatch:
		sh.execBatch(t.req, &rsp, start)
	default:
		if ss := sh.sessions[t.req.Sess]; ss == nil {
			fail(&rsp, CodeNoSession, fmt.Sprintf("unknown session %d", t.req.Sess))
		} else {
			ss.lastOp = start.UnixNano()
			if r := sh.execOp(t.op, ss, t.req, &rsp); r != nil {
				sh.brefs = append(sh.brefs, r)
			}
		}
	}

	buf := getBuf()
	if t.bin {
		buf = AppendResponseBinary(buf, t.op, &rsp)
	} else {
		buf = AppendResponse(buf, t.op, &rsp)
	}
	// Response payloads alias pooled packets until the encode above
	// copies them out; now the packets can recycle.
	for i, r := range sh.brefs {
		sim.ReleaseRsp(r)
		sh.brefs[i] = nil
	}
	sh.brefs = sh.brefs[:0]
	t.c.send(buf)
	putRequest(t.req)

	sh.srv.met.ops[t.op].Inc()
	sh.srv.met.opLat[t.op].Observe(uint64(time.Since(start)))
	if t.c.pending.Add(-1) == 0 && t.c.readerDone.Load() {
		t.c.drop()
	}
}

// execBatch runs a batch frame's sub-ops back-to-back on the session.
// The frame is atomic on the shard — no other request against this
// session (nor any other session of this shard) interleaves — but not
// transactional: a failed sub-op reports its own ok=false and the
// remaining sub-ops still run, exactly as if the client had pipelined
// them as separate requests.
func (sh *shard) execBatch(req *Request, rsp *Response, start time.Time) {
	ss := sh.sessions[req.Sess]
	if ss == nil {
		fail(rsp, CodeNoSession, fmt.Sprintf("unknown session %d", req.Sess))
		return
	}
	ss.lastOp = start.UnixNano()
	rsps := sh.brsps[:0]
	for i := range req.Ops {
		sub := &req.Ops[i]
		var sr Response
		sr.OK = true
		sr.opc = sub.opc
		if r := sh.execOp(sub.opc, ss, sub, &sr); r != nil {
			sh.brefs = append(sh.brefs, r)
		}
		sh.srv.met.ops[sub.opc].Inc()
		rsps = append(rsps, sr)
	}
	sh.brsps = rsps
	rsp.Rsps = rsps
	rsp.Cycle = ss.sim.Cycle()
}

func (sh *shard) execInit(req *Request, rsp *Response) {
	cfg, ok := sh.srv.presets[normalizePreset(req.Preset)]
	if !ok {
		fail(rsp, CodeBadPreset, fmt.Sprintf("unknown preset %q", req.Preset))
		return
	}
	if n := sh.srv.active.Add(1); n > int64(sh.srv.cfg.MaxSessions) {
		sh.srv.active.Add(-1)
		fail(rsp, CodeSessionLimit, fmt.Sprintf("session limit %d reached", sh.srv.cfg.MaxSessions))
		return
	}
	preset := normalizePreset(req.Preset)
	sm, ok := sh.srv.pool.get(preset)
	if !ok {
		var err error
		sm, err = sim.New(cfg)
		if err != nil {
			sh.srv.active.Add(-1)
			fail(rsp, CodeSim, err.Error())
			return
		}
	}
	ss := &session{
		id:     req.Sess,
		preset: preset,
		sim:    sm,
		lastOp: time.Now().UnixNano(),
	}
	sh.sessions[ss.id] = ss
	sh.srv.met.sessionsOpened.Inc()
	sh.srv.met.sessionsActive.Add(1)
	rsp.V = Version
	rsp.Sess = ss.id
	rsp.Cycle = 0
}

// execOp executes one session op. A non-nil return is a pooled response
// packet whose payload rsp aliases; the caller releases it after
// encoding.
func (sh *shard) execOp(op Op, ss *session, req *Request, rsp *Response) *packet.Rsp {
	var ref *packet.Rsp
	switch op {
	case OpSend:
		cmd, ok := hmccmd.FromCode(req.Cmd)
		if !ok {
			fail(rsp, CodeSim, fmt.Sprintf("unknown request command code %d", req.Cmd))
			break
		}
		if req.Link >= ss.sim.Links() {
			fail(rsp, CodeSim, fmt.Sprintf("link %d out of range (%d links)", req.Link, ss.sim.Links()))
			break
		}
		r, err := ss.scratch.Build(cmd, req.Cub, req.Adrs, req.Tag, req.Link, req.Payload)
		if err != nil {
			fail(rsp, CodeSim, err.Error())
			break
		}
		switch err := ss.sim.Send(req.Link, r); {
		case err == nil:
			rsp.Accepted = true
		case errors.Is(err, device.ErrStall):
			rsp.Accepted = false
		default:
			fail(rsp, CodeSim, err.Error())
		}
	case OpRecv:
		if req.Link >= ss.sim.Links() {
			fail(rsp, CodeSim, fmt.Sprintf("link %d out of range (%d links)", req.Link, ss.sim.Links()))
			break
		}
		if r, ok := ss.sim.Recv(req.Link); ok {
			rsp.Have = true
			rsp.Cmd = r.CmdCode
			rsp.Tag = r.TAG
			rsp.Dinv = r.DINV
			rsp.Errstat = r.ERRSTAT
			rsp.Payload = r.Payload
			ref = r
		}
	case OpClock:
		ss.sim.Clock()
	case OpClockN:
		if req.N > sh.srv.cfg.MaxClockBatch {
			fail(rsp, CodeLimit, fmt.Sprintf("n %d exceeds batch cap %d", req.N, sh.srv.cfg.MaxClockBatch))
			break
		}
		ss.sim.ClockN(req.N)
	case OpClockUntilRecv:
		if req.Budget > sh.srv.cfg.MaxRecvBudget {
			fail(rsp, CodeLimit, fmt.Sprintf("budget %d exceeds cap %d", req.Budget, sh.srv.cfg.MaxRecvBudget))
			break
		}
		rsp.Advanced = ss.sim.ClockUntilRecv(req.Budget)
		rsp.Avail = ss.sim.RspAvailable()
	case OpLoadCMC:
		sh.execLoadCMC(ss, req.Name, rsp)
	case OpReset:
		ss.sim.Reset()
	case OpStats:
		devs := ss.sim.Devices()
		rsp.Devices = make([]device.Stats, len(devs))
		for i, d := range devs {
			rsp.Devices[i] = d.Stats()
		}
	case OpClose:
		delete(sh.sessions, ss.id)
		rsp.Cycle = ss.sim.Cycle()
		sh.release(ss)
		sh.srv.met.sessionsClosed.Inc()
		return nil
	}
	if rsp.OK {
		rsp.Cycle = ss.sim.Cycle()
	}
	return ref
}

// execLoadCMC binds a registered CMC operation, idempotently per
// session: reloading a name the session already bound succeeds without
// touching the table (pooled simulators arrive scrubbed, so a fresh
// session never inherits a previous tenant's bindings).
func (sh *shard) execLoadCMC(ss *session, name string, rsp *Response) {
	for _, n := range ss.cmcNames {
		if n == name {
			return
		}
	}
	op, err := cmc.Open(name)
	if err != nil {
		fail(rsp, CodeSim, err.Error())
		return
	}
	if err := ss.sim.LoadCMC(name); err != nil {
		fail(rsp, CodeSim, err.Error())
		return
	}
	ss.cmcNames = append(ss.cmcNames, name)
	ss.cmcCodes = append(ss.cmcCodes, uint8(op.Register().Cmd))
}

func fail(rsp *Response, code, msg string) {
	rsp.OK = false
	rsp.Code = code
	rsp.Err = msg
}

// simPool parks Reset simulators between tenants, keyed by preset.
// Session churn on a warm pool allocates almost nothing in the device
// model: init pops a clean simulator, close Resets and pushes it back.
// Parked simulators are additionally Trimmed — their store pages scrub
// back to the shared page pool and their packet free lists drop — so an
// idle pool holds only structural memory, not the peak footprint of its
// last tenant.
type simPool struct {
	mu   sync.Mutex
	cap  int
	n    int
	idle map[string][]pooledSim
}

type pooledSim = *sim.Simulator

func (p *simPool) get(preset string) (*sim.Simulator, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[preset]
	if len(q) == 0 {
		return nil, false
	}
	s := q[len(q)-1]
	p.idle[preset] = q[:len(q)-1]
	p.n--
	return s, true
}

// put parks s for the next tenant of preset; a full pool drops it.
func (p *simPool) put(preset string, s *sim.Simulator) {
	if p.cap < 0 {
		return
	}
	s.Reset()
	s.Trim()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n >= p.cap {
		return
	}
	p.idle[preset] = append(p.idle[preset], s)
	p.n++
}

func (p *simPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *simPool) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.idle)
	p.n = 0
}
