package server

import (
	"errors"
	"fmt"
	"net"
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
	// MaxSessions caps concurrently live sessions fleet-wide
	// (0 = DefaultMaxSessions).
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long, checked every
	// IdleTTL/4 (at least every 10ms). Eviction is identical to close:
	// the handle dies (no_session), the simulator returns to the pool.
	// 0 disables eviction.
	IdleTTL time.Duration
	// PoolCap bounds idle pooled simulators across all presets
	// (0 = DefaultPoolCap, <0 disables pooling).
	PoolCap int
	// Registry receives the server's instruments; nil uses a private
	// registry (Metrics exposes it either way).
	Registry *metrics.Registry
}

// Defaults for Config's zero fields.
const (
	DefaultMaxSessions = 1 << 16
	DefaultPoolCap     = 1 << 10
)

// Per-request and per-connection bounds. They keep one client from
// monopolizing a stripe of the session table or the server's memory.
const (
	// maxClockBatch caps clockn's n per request.
	maxClockBatch = 1 << 20
	// maxRecvBudget caps clock_until_recv's budget per request.
	maxRecvBudget = 1 << 22
	// maxLineBytes caps one request line or binary frame body.
	maxLineBytes = 1 << 16
	// connWriteDepth is the per-connection pipelined-response queue; a
	// client that stops reading past this depth is disconnected rather
	// than allowed to stall its connection's reader.
	connWriteDepth = 1 << 12
	// numStripes is the number of lock stripes in the session table.
	// A stripe's lock is held for one request's execution, so two
	// connection readers wait for each other only when both run
	// sessions of one stripe at the same moment.
	numStripes = 64
)

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.PoolCap == 0 {
		c.PoolCap = DefaultPoolCap
	}
	return c
}

// sweepEvery is the eviction sweep period for an idle TTL: a quarter of
// it, floored at 10ms.
func sweepEvery(ttl time.Duration) time.Duration {
	return max(ttl/4, 10*time.Millisecond)
}

// session is one hosted simulator. Every field is guarded by the lock
// of the stripe that holds the session.
type session struct {
	id  uint64
	sim *sim.Simulator
	// cmcNames/cmcCodes track LoadCMC bindings: names make loadcmc
	// idempotent per session; codes let release scrub the table before
	// the simulator is pooled for its next tenant.
	cmcNames []string
	cmcCodes []uint8
	// lastOp is the UnixNano of the last request, for idle eviction.
	lastOp int64
}

// stripe is one lock-guarded part of the session table: the sessions
// whose id is congruent to its index modulo numStripes. Its lock is
// held from a request's session lookup through the response encode, so
// the requests against one session serialize and a batch frame runs
// atomically.
type stripe struct {
	mu       sync.Mutex
	sessions map[uint64]*session
}

// Server hosts simulator sessions behind the line-JSON protocol.
type Server struct {
	cfg     Config
	stripes [numStripes]stripe
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
	// opLat times a request from before its stripe lock is taken to the
	// hand-off of its response to the connection writer, so it includes
	// the wait for the lock.
	opLat [NumOps]*metrics.Histogram
}

// New builds and starts a Server (and, when IdleTTL is set, its
// eviction sweeper); attach transports with Serve/ServeConn.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	srv := &Server{
		cfg:   cfg,
		reg:   reg,
		conns: make(map[*conn]struct{}),
		stop:  make(chan struct{}),
	}
	srv.pool.cap = cfg.PoolCap
	srv.pool.idle = make(map[config.Config][]*sim.Simulator)

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

	for i := range srv.stripes {
		srv.stripes[i].sessions = make(map[uint64]*session)
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
		srv: s,
		nc:  nc,
		out: make(chan []byte, connWriteDepth),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	// Added under mu, so a Close that has not seen this conn cannot be
	// waiting on connWG yet.
	s.connWG.Add(2)
	s.mu.Unlock()
	s.met.connsOpened.Inc()
	s.met.connsActive.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

// Close shuts the server down: listeners close, the sweeper stops,
// connections drop, their readers and writers exit, every live
// session's simulator is released and the pool drains. Close is
// idempotent and safe to call concurrently.
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
	// Once the readers are gone no request can reach a session.
	s.connWG.Wait()
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for _, ss := range st.sessions {
			s.release(ss)
		}
		clear(st.sessions)
		st.mu.Unlock()
	}
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

// sweeper evicts idle sessions on every tick until Close.
func (s *Server) sweeper() {
	defer s.sweepWG.Done()
	tick := time.NewTicker(sweepEvery(s.cfg.IdleTTL))
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			s.sweepIdle(now.UnixNano())
		}
	}
}

// sweepIdle closes sessions idle past the TTL, one stripe at a time
// under its lock. An evicted session is indistinguishable from a closed
// one: the handle answers no_session and the simulator is already
// serving (or pooled for) someone else.
func (s *Server) sweepIdle(now int64) {
	ttl := int64(s.cfg.IdleTTL)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id, ss := range st.sessions {
			if now-ss.lastOp > ttl {
				delete(st.sessions, id)
				s.release(ss)
				s.met.evictions.Inc()
				s.met.sessionsClosed.Inc()
			}
		}
		st.mu.Unlock()
	}
}

// release scrubs a session's CMC bindings and hands its simulator to
// the pool (Reset-in-place), or drops it when the pool is full. The
// caller holds the session's stripe lock.
func (s *Server) release(ss *session) {
	s.active.Add(-1)
	s.met.sessionsActive.Add(-1)
	for _, code := range ss.cmcCodes {
		for _, d := range ss.sim.Devices() {
			d.CMC().Unload(code)
		}
	}
	s.pool.put(ss.sim.Config(), ss.sim)
	ss.sim = nil
}

// exec runs one request to completion on the connection's reader. The
// session's stripe lock is held from the lookup through the simulator
// call, the response encode and the release of the pooled packets the
// response aliased; the hand-off to the writer happens after it.
func (c *conn) exec(op Op, req *Request, bin bool) {
	srv := c.srv
	start := time.Now()
	var rsp Response
	rsp.ID = req.ID
	rsp.OK = true

	st := &srv.stripes[req.Sess%numStripes]
	st.mu.Lock()
	switch op {
	case OpInit:
		c.execInit(st, req, &rsp)
	case OpBatch:
		c.execBatch(st, req, &rsp, start)
	default:
		if ss := st.sessions[req.Sess]; ss == nil {
			fail(&rsp, CodeNoSession, fmt.Sprintf("unknown session %d", req.Sess))
		} else {
			ss.lastOp = start.UnixNano()
			if r := c.execOp(op, st, ss, req, &rsp); r != nil {
				c.brefs = append(c.brefs, r)
			}
		}
	}

	buf := getBuf()
	if bin {
		buf = AppendResponseBinary(buf, op, &rsp)
	} else {
		buf = AppendResponse(buf, op, &rsp)
	}
	// Response payloads alias pooled packets until the encode above
	// copies them out; now the packets can recycle.
	for i, r := range c.brefs {
		sim.ReleaseRsp(r)
		c.brefs[i] = nil
	}
	c.brefs = c.brefs[:0]
	st.mu.Unlock()

	c.send(buf)
	srv.met.ops[op].Inc()
	srv.met.opLat[op].Observe(uint64(time.Since(start)))
}

// execBatch runs a batch frame's sub-ops back-to-back on the session.
// The frame is atomic — the stripe lock keeps every other request
// against this session out until it ends — but not transactional: a
// failed sub-op reports its own ok=false and the remaining sub-ops
// still run, exactly as if the client had pipelined them as separate
// requests.
func (c *conn) execBatch(st *stripe, req *Request, rsp *Response, start time.Time) {
	ss := st.sessions[req.Sess]
	if ss == nil {
		fail(rsp, CodeNoSession, fmt.Sprintf("unknown session %d", req.Sess))
		return
	}
	ss.lastOp = start.UnixNano()
	rsps := c.brsps[:0]
	for i := range req.Ops {
		sub := &req.Ops[i]
		var sr Response
		sr.OK = true
		sr.opc = sub.opc
		if r := c.execOp(sub.opc, st, ss, sub, &sr); r != nil {
			c.brefs = append(c.brefs, r)
		}
		c.srv.met.ops[sub.opc].Inc()
		rsps = append(rsps, sr)
	}
	c.brsps = rsps
	rsp.Rsps = rsps
	rsp.Cycle = ss.sim.Cycle()
}

func (c *conn) execInit(st *stripe, req *Request, rsp *Response) {
	srv := c.srv
	cfg, err := config.ByName(req.Preset)
	if err != nil {
		fail(rsp, CodeBadPreset, fmt.Sprintf("unknown preset %q", req.Preset))
		return
	}
	if n := srv.active.Add(1); n > int64(srv.cfg.MaxSessions) {
		srv.active.Add(-1)
		fail(rsp, CodeSessionLimit, fmt.Sprintf("session limit %d reached", srv.cfg.MaxSessions))
		return
	}
	sm, ok := srv.pool.get(cfg)
	if !ok {
		sm, err = sim.New(cfg)
		if err != nil {
			srv.active.Add(-1)
			fail(rsp, CodeSim, err.Error())
			return
		}
	}
	ss := &session{
		id:     req.Sess,
		sim:    sm,
		lastOp: time.Now().UnixNano(),
	}
	st.sessions[ss.id] = ss
	srv.met.sessionsOpened.Inc()
	srv.met.sessionsActive.Add(1)
	rsp.V = Version
	rsp.Sess = ss.id
	rsp.Cycle = 0
}

// execOp executes one session op. A non-nil return is a pooled response
// packet whose payload rsp aliases; the caller releases it after
// encoding.
func (c *conn) execOp(op Op, st *stripe, ss *session, req *Request, rsp *Response) *packet.Rsp {
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
		r, err := c.scratch.Build(cmd, req.Cub, req.Adrs, req.Tag, req.Link, req.Payload)
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
		if req.N > maxClockBatch {
			fail(rsp, CodeLimit, fmt.Sprintf("n %d exceeds batch cap %d", req.N, maxClockBatch))
			break
		}
		ss.sim.ClockN(req.N)
	case OpClockUntilRecv:
		if req.Budget > maxRecvBudget {
			fail(rsp, CodeLimit, fmt.Sprintf("budget %d exceeds cap %d", req.Budget, maxRecvBudget))
			break
		}
		rsp.Advanced = ss.sim.ClockUntilRecv(req.Budget)
		rsp.Avail = ss.sim.RspAvailable()
	case OpLoadCMC:
		ss.loadCMC(req.Name, rsp)
	case OpReset:
		ss.sim.Reset()
	case OpStats:
		devs := ss.sim.Devices()
		rsp.Devices = make([]device.Stats, len(devs))
		for i, d := range devs {
			rsp.Devices[i] = d.Stats()
		}
	case OpClose:
		delete(st.sessions, ss.id)
		rsp.Cycle = ss.sim.Cycle()
		c.srv.release(ss)
		c.srv.met.sessionsClosed.Inc()
		return nil
	}
	if rsp.OK {
		rsp.Cycle = ss.sim.Cycle()
	}
	return ref
}

// loadCMC binds a registered CMC operation, idempotently per session:
// reloading a name the session already bound succeeds without touching
// the table (pooled simulators arrive scrubbed, so a fresh session
// never inherits a previous tenant's bindings).
func (ss *session) loadCMC(name string, rsp *Response) {
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

// simPool parks Reset simulators between tenants, keyed by device
// configuration.
// Session churn on a warm pool allocates almost nothing in the device
// model: init pops a clean simulator, close Resets and pushes it back.
// Parked simulators are additionally Trimmed — their store pages scrub
// back to the shared page pool and their packet free lists, ports and
// vaults drop — so an idle pool holds only structural memory, not the peak
// footprint of its last tenant.
type simPool struct {
	mu   sync.Mutex
	cap  int
	n    int
	idle map[config.Config][]*sim.Simulator
}

func (p *simPool) get(cfg config.Config) (*sim.Simulator, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[cfg]
	if len(q) == 0 {
		return nil, false
	}
	s := q[len(q)-1]
	p.idle[cfg] = q[:len(q)-1]
	p.n--
	return s, true
}

// put parks s for the next tenant of cfg; a full pool drops it.
func (p *simPool) put(cfg config.Config, s *sim.Simulator) {
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
	p.idle[cfg] = append(p.idle[cfg], s)
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
