package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/server"
	"repro/internal/sim"
)

// The hmcd workloads host a fleet of 4link-4gb sessions in an
// in-process session server listening on a Unix socket, driven by
// closed-loop clients (each waits for a reply before its next request,
// as a co-simulator does) over two connections. One round on a session
// writes 64 seeded bytes to a random block of the session's window,
// clocks until the response, receives it, then reads the block back the
// same way and checks the data: six protocol operations, sent as six
// line-JSON round trips (hmcd-json) or one binary batch frame
// (hmcd-binary-batch).
const (
	hmcdClients = 8
	hmcdConns   = 2
	hmcdPreset  = "4link-4gb"
	hmcdBudget  = 1 << 16 // clock_until_recv cycle budget
	hmcdOps     = 6       // protocol operations per round
	// A session's window is 256 blocks of 64 bytes, laid out so they
	// fill exactly four 4 KiB store pages: 16 KiB per session. Block k of
	// session s is at k*hmcdStride + (s%32)*64, one vault per session.
	hmcdWindow = 256
	hmcdStride = 2048
	// hmcdCapture is how many rounds of client 0's traced traffic are
	// kept for replay through the codec and an in-process simulator.
	hmcdCapture = 64
)

// Round-trip kinds timed by the traced pass (client.rtt_us.<kind>).
const (
	rttSend = iota
	rttClock
	rttRecv
	rttBatch
	numRTT
)

var rttNames = [numRTT]string{"send", "clock_until_recv", "recv", "batch"}

// rttKind maps a single-op request to its round-trip kind.
func rttKind(op server.Op) int {
	switch op {
	case server.OpSend:
		return rttSend
	case server.OpClockUntilRecv:
		return rttClock
	}
	return rttRecv
}

var (
	cmdWR64  = hmccmd.WR64.Code()
	cmdRD64  = hmccmd.RD64.Code()
	rspWR, _ = hmccmd.WrRS.Code()
	rspRD, _ = hmccmd.RdRS.Code()
)

type hmcdInst struct {
	batch   bool // binary protocol, one batch frame per round
	srv     *server.Server
	served  chan error
	conns   []*server.Client
	clients []*hmcdClient
}

// hmcdClient is one closed-loop client: its own sessions, visited round
// robin, and its own seeded data stream.
type hmcdClient struct {
	cl   *server.Client
	b    *server.Batch
	sess []uint64
	next int
	rng  uint64
	data [8]uint64
	t    tally
	tr   *clientTrace // nil when untraced
}

// clientTrace is one client's traced-pass account.
type clientTrace struct {
	wall    time.Duration
	agent   time.Duration // generating data and checking replies
	rtt     [numRTT]time.Duration
	rttN    [numRTT]uint64
	capture []capturedMsg
	keep    bool // capture this client's traffic
}

// capturedMsg is one protocol message as sent and answered, normalized
// by the server's own decoder so it replays exactly.
type capturedMsg struct {
	op  server.Op
	req server.Request
	rsp server.Response
}

// sockSeq numbers the sockets of successive set-ups in one run.
var sockSeq atomic.Int64

func openHmcdJSON(o *options) (instance, error)  { return openHmcd(o, false) }
func openHmcdBatch(o *options) (instance, error) { return openHmcd(o, true) }

// openHmcd starts the server, dials and negotiates both connections and
// opens the whole fleet.
func openHmcd(o *options, batch bool) (instance, error) {
	proto := server.ProtoJSON
	if batch {
		proto = server.ProtoBinary
	}
	sock := filepath.Join(o.dir, fmt.Sprintf("hmcd-%d.sock", sockSeq.Add(1)))

	h := &hmcdInst{
		batch:  batch,
		srv:    server.New(server.Config{MaxSessions: o.sessions + 16}),
		served: make(chan error, 1),
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		h.srv.Close()
		return nil, err
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	for i := 0; i < hmcdConns; i++ {
		cl, err := server.DialProto("unix", sock, proto)
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, cl)
	}
	for k := 0; k < hmcdClients; k++ {
		c := &hmcdClient{cl: h.conns[k%hmcdConns], rng: mix(o.seed, uint64(k))}
		if batch {
			c.b = c.cl.NewBatch(0)
		}
		h.clients = append(h.clients, c)
	}
	err = h.each(func(k int, c *hmcdClient) error {
		for i := k; i < o.sessions; i += hmcdClients {
			id, err := c.cl.Init(hmcdPreset)
			if err != nil {
				return fmt.Errorf("init session %d: %w", i, err)
			}
			c.sess = append(c.sess, id)
		}
		return nil
	})
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// each runs fn for every client on its own goroutine and waits for all.
func (h *hmcdInst) each(fn func(k int, c *hmcdClient) error) error {
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	for k, c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(k, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops the server, which closes its listener and so ends Serve,
// and the clients.
func (h *hmcdInst) close() {
	h.srv.Close()
	for _, cl := range h.conns {
		cl.Close()
	}
	<-h.served
}

func (c *hmcdClient) rand() uint64 {
	c.rng += 0x9E3779B97F4A7C15
	return mix(c.rng)
}

// do is one single-op round trip, timed into the latency histogram and,
// traced, into the client's round-trip account.
func (c *hmcdClient) do(op server.Op, req server.Request) (server.Response, error) {
	t0 := time.Now()
	rsp, err := c.cl.Do(op, req)
	d := time.Since(t0)
	c.t.lat.add(d.Nanoseconds())
	tr := c.tr
	if tr == nil {
		return rsp, err
	}
	k := rttKind(op)
	tr.rtt[k] += d
	tr.rttN[k]++
	if tr.keep && len(tr.capture) < hmcdOps*hmcdCapture {
		req.Payload = append([]uint64(nil), req.Payload...)
		tr.capture = append(tr.capture, capturedMsg{op: op, req: req, rsp: rsp})
	}
	return rsp, err
}

// round runs one write/read round on sess at window block blk. A
// protocol or transport error aborts the run; a reply that fails a check
// counts the round as failed.
func (c *hmcdClient) round(sess, blk uint64) error {
	var t0 time.Time
	if c.tr != nil {
		t0 = time.Now()
	}
	adrs := blk*hmcdStride + sess%32*64
	for i := range c.data {
		c.data[i] = c.rand()
	}
	if c.tr != nil {
		c.tr.agent += time.Since(t0)
	}

	var ok bool
	var cycles uint64
	var err error
	if c.b != nil {
		ok, cycles, err = c.batchRound(sess, adrs)
	} else {
		ok, cycles, err = c.jsonRound(sess, adrs)
	}
	if err != nil {
		return err
	}
	c.t.ops += hmcdOps
	c.t.cycles += cycles
	if !ok {
		c.t.failed += hmcdOps
	}
	return nil
}

func (c *hmcdClient) jsonRound(sess, adrs uint64) (ok bool, cycles uint64, err error) {
	ok = true
	for i, step := range [2]struct {
		cmd, rspCmd uint8
		tag         uint16
		payload     []uint64
	}{{cmdWR64, rspWR, 1, c.data[:]}, {cmdRD64, rspRD, 2, nil}} {
		rsp, err := c.do(server.OpSend, server.Request{Sess: sess, Cmd: step.cmd, Adrs: adrs, Tag: step.tag, Payload: step.payload})
		if err != nil {
			return false, cycles, err
		}
		ok = ok && rsp.Accepted
		rsp, err = c.do(server.OpClockUntilRecv, server.Request{Sess: sess, Budget: hmcdBudget})
		if err != nil {
			return false, cycles, err
		}
		ok = ok && rsp.Avail
		cycles += rsp.Advanced
		rsp, err = c.do(server.OpRecv, server.Request{Sess: sess})
		if err != nil {
			return false, cycles, err
		}
		ok = c.checkRecv(ok, &rsp, step.rspCmd, step.tag, i == 1)
	}
	return ok, cycles, nil
}

func (c *hmcdClient) batchRound(sess, adrs uint64) (ok bool, cycles uint64, err error) {
	b := c.b
	b.Begin(sess)
	b.Send(0, cmdWR64, 0, adrs, 1, c.data[:])
	b.ClockUntilRecv(hmcdBudget)
	b.Recv(0)
	b.Send(0, cmdRD64, 0, adrs, 2, nil)
	b.ClockUntilRecv(hmcdBudget)
	b.Recv(0)
	t0 := time.Now()
	rsps, err := b.Do()
	d := time.Since(t0)
	if err != nil {
		return false, 0, err
	}
	c.t.lat.add(d.Nanoseconds())
	if tr := c.tr; tr != nil {
		tr.rtt[rttBatch] += d
		tr.rttN[rttBatch]++
		if tr.keep && len(tr.capture) < hmcdCapture {
			tr.capture = append(tr.capture, captureBatch(sess, adrs, c.data[:], rsps))
		}
	}
	if len(rsps) != hmcdOps {
		return false, 0, fmt.Errorf("batch answered %d of %d ops", len(rsps), hmcdOps)
	}
	ok = true
	for _, r := range rsps {
		ok = ok && r.OK
	}
	cycles = rsps[1].Advanced + rsps[4].Advanced
	ok = ok && rsps[0].Accepted && rsps[1].Avail && rsps[3].Accepted && rsps[4].Avail
	ok = c.checkRecv(ok, &rsps[2], rspWR, 1, false)
	ok = c.checkRecv(ok, &rsps[5], rspRD, 2, true)
	return ok, cycles, nil
}

// checkRecv checks a received response packet, and for the read that
// its data echoes the preceding write.
func (c *hmcdClient) checkRecv(ok bool, r *server.Response, cmd uint8, tag uint16, echo bool) bool {
	var t0 time.Time
	if c.tr != nil {
		t0 = time.Now()
		defer func() { c.tr.agent += time.Since(t0) }()
	}
	return ok && r.Have && r.Cmd == cmd && r.Tag == tag && r.Errstat == 0 &&
		(!echo || slices.Equal(r.Payload, c.data[:]))
}

// loop runs rounds round robin over the client's sessions until the
// deadline.
func (c *hmcdClient) loop(until time.Time) error {
	t0 := time.Now()
	for time.Now().Before(until) {
		sess := c.sess[c.next]
		c.next = (c.next + 1) % len(c.sess)
		if err := c.round(sess, c.rand()%hmcdWindow); err != nil {
			return err
		}
	}
	if c.tr != nil {
		c.tr.wall += time.Since(t0)
	}
	return nil
}

// warm writes one block in each of a session's four window pages, so
// the timed phase starts with every page materialized.
func (h *hmcdInst) warm() error {
	return h.each(func(_ int, c *hmcdClient) error {
		for _, sess := range c.sess {
			for blk := uint64(0); blk < hmcdWindow; blk += hmcdWindow / 4 {
				if err := c.round(sess, blk); err != nil {
					return err
				}
			}
		}
		if c.t.failed > 0 {
			return fmt.Errorf("%d warm-up operations failed", c.t.failed)
		}
		c.t = tally{}
		return nil
	})
}

// run runs every client until the deadline and merges their tallies.
func (h *hmcdInst) run(until time.Time, t *tally) error {
	t0 := time.Now()
	err := h.each(func(_ int, c *hmcdClient) error {
		c.t = tally{}
		return c.loop(until)
	})
	t.busy += time.Since(t0)
	for _, c := range h.clients {
		t.merge(&c.t)
	}
	return err
}

func (h *hmcdInst) traced(until time.Time, t *tally) (*ledger, error) {
	for k, c := range h.clients {
		c.tr = &clientTrace{keep: k == 0}
	}
	defer func() {
		for _, c := range h.clients {
			c.tr = nil
		}
	}()
	if err := h.run(until, t); err != nil {
		return nil, err
	}
	var wall, agent, rttSum time.Duration
	var rtt [numRTT]time.Duration
	var rttN [numRTT]uint64
	for _, c := range h.clients {
		wall += c.tr.wall
		agent += c.tr.agent
		for k := range rtt {
			rtt[k] += c.tr.rtt[k]
			rttN[k] += c.tr.rttN[k]
			rttSum += c.tr.rtt[k]
		}
	}
	msgs := rttN[rttSend] + rttN[rttClock] + rttN[rttRecv] + rttN[rttBatch]

	capture, err := normalize(h.clients[0].tr.capture)
	if err != nil {
		return nil, err
	}
	enc, dec, senc, err := replayCodec(capture, h.batch)
	if err != nil {
		return nil, err
	}
	exec, sc, mismatches, err := replayExec(capture, h.batch)
	if err != nil {
		return nil, err
	}
	t.failed += mismatches * hmcdOps
	perMsg := func(ns float64) time.Duration { return time.Duration(ns * float64(msgs)) }
	transport := rttSum - perMsg(enc+dec+exec+senc)

	l := &ledger{
		wall: wall,
		parts: []ledgerPart{
			{"workload.agent", agent},
			{"client.encode", perMsg(enc)},
			{"server.decode", perMsg(dec)},
			{"server.exec", perMsg(exec)},
			{"server.encode", perMsg(senc)},
			{"server.transport", transport},
		},
		remainder:  "workload.engine",
		metrics:    make(map[string]float64),
		perSession: true,
	}
	m := l.metrics
	sc.fill(m)
	for k := range rtt {
		m["client.rtt_us."+rttNames[k]] = ratio(float64(rtt[k].Nanoseconds()), float64(rttN[k])) / 1e3
	}
	m["client.encode_ns"] = enc
	m["server.decode_ns"] = dec
	m["server.encode_ns"] = senc
	m["server.exec_ns"] = exec
	m["server.transport_ns"] = ratio(float64(transport.Nanoseconds()), float64(msgs))
	m["workload.agent_ns_per_op"] = ratio(float64(agent.Nanoseconds()), float64(t.ops))
	m["workload.engine_ns_per_op"] = ratio(float64(l.rest().Nanoseconds()), float64(t.ops))
	return l, nil
}

// captureBatch records one batch round as the request the Batch sent
// and the response it decoded.
func captureBatch(sess, adrs uint64, data []uint64, rsps []server.Response) capturedMsg {
	req := server.Request{Op: "batch", Sess: sess, Ops: []server.Request{
		{Op: "send", Cmd: cmdWR64, Adrs: adrs, Tag: 1, Payload: append([]uint64(nil), data...)},
		{Op: "clock_until_recv", Budget: hmcdBudget},
		{Op: "recv"},
		{Op: "send", Cmd: cmdRD64, Adrs: adrs, Tag: 2},
		{Op: "clock_until_recv", Budget: hmcdBudget},
		{Op: "recv"},
	}}
	rsp := server.Response{OK: true, Rsps: append([]server.Response(nil), rsps...)}
	for i := range rsp.Rsps {
		rsp.Rsps[i].Payload = append([]uint64(nil), rsp.Rsps[i].Payload...)
		rsp.Cycle = rsp.Rsps[i].Cycle
	}
	return capturedMsg{op: server.OpBatch, req: req, rsp: rsp}
}

// normalize passes every captured request through the server's decoder,
// which resolves the op codes the encoders read, and gives each a
// realistic id.
func normalize(msgs []capturedMsg) ([]capturedMsg, error) {
	out := make([]capturedMsg, len(msgs))
	for i, m := range msgs {
		m.req.ID = uint64(100000 + i)
		m.req.Op = m.op.String()
		m.rsp.ID = m.req.ID
		line, err := json.Marshal(m.req)
		if err != nil {
			return nil, err
		}
		var req server.Request
		if _, err := server.DecodeRequest(line, &req); err != nil {
			return nil, fmt.Errorf("captured %v request: %w", m.op, err)
		}
		m.req = req
		out[i] = m
	}
	return out, nil
}

// replayReps is how many times the captured traffic replays through the
// codec and the simulator: enough for each function's total to span
// tens of milliseconds, over which host noise averages out.
const replayReps = 1000

// replayCodec times the exported encoders and decoders on the captured
// messages, per message: the client's request encode, the server's
// request decode and the server's response encode.
func replayCodec(msgs []capturedMsg, binary bool) (enc, dec, senc float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	var req server.Request
	wire := make([][]byte, len(msgs)) // each request as the server's reader hands it over
	for i, m := range msgs {
		if binary {
			wire[i] = server.AppendRequestBinary(nil, m.op, &m.req)[4:]
			_, err = server.DecodeRequestBinary(wire[i], &req)
		} else {
			b := server.AppendRequest(nil, m.op, &m.req)
			wire[i] = b[:len(b)-1]
			_, err = server.DecodeRequest(wire[i], &req)
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("replaying captured %v request: %w", m.op, err)
		}
	}
	nsPerMsg := func(fn func(m *capturedMsg, wire []byte)) float64 {
		t0 := time.Now()
		for r := 0; r < replayReps; r++ {
			for i := range msgs {
				fn(&msgs[i], wire[i])
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(replayReps*len(msgs))
	}
	var buf []byte
	if binary {
		enc = nsPerMsg(func(m *capturedMsg, _ []byte) { buf = server.AppendRequestBinary(buf[:0], m.op, &m.req) })
		dec = nsPerMsg(func(_ *capturedMsg, w []byte) { server.DecodeRequestBinary(w, &req) })
		senc = nsPerMsg(func(m *capturedMsg, _ []byte) { buf = server.AppendResponseBinary(buf[:0], m.op, &m.rsp) })
	} else {
		enc = nsPerMsg(func(m *capturedMsg, _ []byte) { buf = server.AppendRequest(buf[:0], m.op, &m.req) })
		dec = nsPerMsg(func(_ *capturedMsg, w []byte) { server.DecodeRequest(w, &req) })
		senc = nsPerMsg(func(m *capturedMsg, _ []byte) { buf = server.AppendResponse(buf[:0], m.op, &m.rsp) })
	}
	return enc, dec, senc, nil
}

// replayExec executes the captured operations on an in-process
// simulator as the server's shard does (build, then the sim call), and
// returns the execute time per message, the sim-level counts and how
// many replayed reads failed to echo their write. The simulator is warm
// and alone, so cache misses the real fleet takes stay in transport.
func replayExec(msgs []capturedMsg, batch bool) (float64, *simCounts, uint64, error) {
	s, err := sim.New(config.FourLink4GB())
	if err != nil {
		return 0, nil, 0, err
	}
	defer s.Close()
	var ops []server.Request
	for _, m := range msgs {
		if batch {
			ops = append(ops, m.req.Ops...)
		} else {
			ops = append(ops, m.req)
		}
	}
	var (
		c          simCounts
		scratch    sim.ReqScratch
		total      time.Duration
		mismatches uint64
		written    []uint64
	)
	for r := 0; r < replayReps; r++ {
		for i := range ops {
			op := &ops[i]
			t0 := time.Now()
			switch op.Op {
			case "send":
				cmd, _ := hmccmd.FromCode(op.Cmd)
				rq, err := scratch.Build(cmd, op.Cub, op.Adrs, op.Tag, op.Link, op.Payload)
				if err != nil {
					return 0, nil, 0, err
				}
				t1 := time.Now()
				err = s.Send(op.Link, rq)
				c.send += time.Since(t1)
				c.sends++
				if errors.Is(err, device.ErrStall) {
					c.stalls++
				} else if err != nil {
					return 0, nil, 0, err
				}
				if len(op.Payload) > 0 {
					written = op.Payload
				}
			case "clock_until_recv":
				t1 := time.Now()
				adv := s.ClockUntilRecv(op.Budget)
				s.RspAvailable()
				c.clock += time.Since(t1)
				c.clocks++
				c.cycles += adv
			case "recv":
				t1 := time.Now()
				rsp, ok := s.Recv(op.Link)
				c.recv += time.Since(t1)
				c.recvs++
				if !ok {
					c.empties++
					mismatches++
					break
				}
				if rsp.CmdCode == rspRD && !slices.Equal(rsp.Payload, written) {
					mismatches++
				}
				sim.ReleaseRsp(rsp)
			}
			total += time.Since(t0)
		}
	}
	c.addDevices(s)
	return ratio(float64(total.Nanoseconds()), float64(len(msgs)*replayReps)), &c, mismatches, nil
}
