package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Client speaks the session protocol over one connection, in either
// wire encoding (Hello negotiates; line-JSON is the default). It is
// safe for concurrent use: calls from many goroutines pipeline onto the
// single connection and are demultiplexed by response id, so one Client
// can drive thousands of sessions at once. The server executes one
// connection's requests in arrival order; requests execute in parallel
// only across connections, so a caller that wants that dials several
// Clients.
type Client struct {
	nc net.Conn

	wmu  sync.Mutex
	bw   *bufio.Writer
	enc  []byte
	binW bool

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]*clientCall
	readErr error
	dead    bool

	// binR flips the reader to binary framing. It is set after the
	// hello response is consumed and read at message boundaries, so the
	// switch is race-free as long as Hello runs before concurrent use.
	binR atomic.Bool
}

// clientCall is one in-flight request: the decode target and the
// completion signal. Calls recycle through callPool, and the embedded
// Response keeps its payload buffers warm across uses — a steady-state
// round trip allocates nothing for canonical traffic.
type clientCall struct {
	done chan struct{}
	rsp  Response
	err  error
}

var callPool = sync.Pool{
	New: func() any { return &clientCall{done: make(chan struct{}, 1)} },
}

func getCall() *clientCall {
	call := callPool.Get().(*clientCall)
	call.err = nil
	return call
}

func putCall(call *clientCall) { callPool.Put(call) }

// ErrClientClosed reports a call against a closed (or failed) client
// connection.
var ErrClientClosed = errors.New("server: client connection closed")

// clientMaxMessage bounds one response line or frame.
const clientMaxMessage = 1 << 20

// Dial connects a Client to an hmcd endpoint ("tcp", "host:port" or
// "unix", "/path/sock").
func Dial(network, addr string) (*Client, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// DialProto dials and immediately negotiates the given wire encoding
// (ProtoJSON, ProtoBinary).
func DialProto(network, addr, proto string) (*Client, error) {
	c, err := Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if err := c.Hello(proto); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (one end of a net.Pipe
// works for in-process use) and starts its response reader.
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:      nc,
		bw:      bufio.NewWriterSize(nc, 16<<10),
		pending: make(map[uint64]*clientCall),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail with
// ErrClientClosed.
func (c *Client) Close() error { return c.nc.Close() }

// Hello negotiates the connection's wire encoding. Call it right after
// dialing, before issuing concurrent requests: the encoding switches
// between the hello response and the next request, and in-flight
// traffic during the switch would be misframed. An empty proto (or
// ProtoJSON) keeps the debuggable line-JSON default.
func (c *Client) Hello(proto string) error {
	rsp, err := c.Do(OpHello, Request{Proto: proto})
	if err != nil {
		return err
	}
	if rsp.Proto == ProtoBinary {
		// The read side already switched itself when it decoded the
		// hello response (it would otherwise re-enter the line reader
		// before this goroutine resumed); only the write side flips here.
		c.wmu.Lock()
		c.binW = true
		c.wmu.Unlock()
	}
	return nil
}

// take claims the in-flight call for id, or nil if it was abandoned.
func (c *Client) take(id uint64) *clientCall {
	c.pmu.Lock()
	call := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	return call
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 16<<10)
	var scratch []byte
	for {
		if c.binR.Load() {
			body, err := readFrame(br, &scratch, clientMaxMessage)
			if err != nil {
				c.fail(readErrOr(err))
				return
			}
			if len(body) < 1+8 {
				c.fail(fmt.Errorf("server: short binary response (%d bytes)", len(body)))
				return
			}
			call := c.take(binary.LittleEndian.Uint64(body[1:9]))
			if call == nil {
				continue
			}
			if err := DecodeResponseBinary(body, &call.rsp); err != nil {
				call.err = err
				call.done <- struct{}{}
				c.fail(err)
				return
			}
			call.done <- struct{}{}
			continue
		}
		line, err := readLine(br, &scratch, clientMaxMessage)
		if err != nil {
			c.fail(readErrOr(err))
			return
		}
		if len(line) == 0 {
			continue
		}
		if id, ok := peekID(line); ok {
			call := c.take(id)
			if call == nil {
				continue
			}
			if !parseResponseFast(line, &call.rsp) {
				call.rsp = Response{}
				if err := json.Unmarshal(line, &call.rsp); err != nil {
					call.err = fmt.Errorf("server: undecodable response: %w", err)
					call.done <- struct{}{}
					c.fail(call.err)
					return
				}
			}
			// A hello response switches the read side immediately: the
			// very next bytes on the wire may already be binary frames,
			// and waiting for Hello() to resume would re-enter the line
			// reader first.
			if call.rsp.Proto == ProtoBinary {
				c.binR.Store(true)
			}
			call.done <- struct{}{}
			continue
		}
		// Non-canonical line: decode to find the id, then route.
		var tmp Response
		if err := json.Unmarshal(line, &tmp); err != nil {
			c.fail(fmt.Errorf("server: undecodable response: %w", err))
			return
		}
		if tmp.Proto == ProtoBinary {
			c.binR.Store(true)
		}
		if call := c.take(tmp.ID); call != nil {
			call.rsp = tmp
			call.done <- struct{}{}
		}
	}
}

// readErrOr maps stream-end and closed-socket errors to the stable
// ErrClientClosed; anything else passes through.
func readErrOr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ErrClientClosed
	}
	return err
}

// peekID extracts the id from a canonical response line without
// decoding the rest, so the line can be parsed straight into its
// caller's reusable Response.
func peekID(line []byte) (uint64, bool) {
	const p = `{"id":`
	if len(line) < len(p)+1 || string(line[:len(p)]) != p {
		return 0, false
	}
	s := fastScan{b: line, off: len(p)}
	return s.uint()
}

// fail poisons the client: every waiter (current and future) gets err.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.dead {
		c.pmu.Unlock()
		return
	}
	c.dead = true
	c.readErr = err
	pend := c.pending
	c.pending = nil
	c.pmu.Unlock()
	c.nc.Close()
	for _, call := range pend {
		call.err = err
		call.done <- struct{}{}
	}
}

// do executes one request against a caller-provided call object and
// leaves the decoded response in call.rsp. The returned Response is a
// shallow copy whose slices alias call.rsp's buffers — the caller
// decides whether to detach them.
func (c *Client) do(op Op, req *Request, call *clientCall) (Response, error) {
	req.ID = c.nextID.Add(1)

	c.pmu.Lock()
	if c.dead {
		err := c.readErr
		c.pmu.Unlock()
		return Response{}, err
	}
	c.pending[req.ID] = call
	c.pmu.Unlock()

	c.wmu.Lock()
	if c.binW && op != OpHello {
		c.enc = AppendRequestBinary(c.enc[:0], op, req)
	} else {
		c.enc = AppendRequest(c.enc[:0], op, req)
	}
	_, werr := c.bw.Write(c.enc)
	if werr == nil {
		werr = c.bw.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		c.pmu.Lock()
		if c.pending != nil {
			delete(c.pending, req.ID)
			c.pmu.Unlock()
		} else {
			// fail() claimed the pending set between register and here;
			// it will signal this call. Consume that signal so the call
			// leaves with a drained channel and can be recycled.
			c.pmu.Unlock()
			<-call.done
		}
		return Response{}, werr
	}

	<-call.done
	if call.err != nil {
		return Response{}, call.err
	}
	rsp := call.rsp
	if !rsp.OK {
		return rsp, &ProtocolError{Code: rsp.Code, Msg: rsp.Err}
	}
	return rsp, nil
}

// Do executes one request synchronously: it assigns the id, writes the
// message, and waits for the matching response. A response with
// ok=false is returned as a *ProtocolError (the Response travels with
// it). The returned Response is detached — its slices are the caller's.
func (c *Client) Do(op Op, req Request) (Response, error) {
	call := getCall()
	rsp, err := c.do(op, &req, call)
	// Detach from the pooled call's reusable buffers before recycling.
	if len(rsp.Payload) > 0 {
		rsp.Payload = append([]uint64(nil), rsp.Payload...)
	}
	if len(rsp.Rsps) > 0 {
		rsps := make([]Response, len(rsp.Rsps))
		copy(rsps, rsp.Rsps)
		for i := range rsps {
			if len(rsps[i].Payload) > 0 {
				rsps[i].Payload = append([]uint64(nil), rsps[i].Payload...)
			}
		}
		rsp.Rsps = rsps
	}
	// Every do() exit leaves call.done drained, so recycling is safe.
	putCall(call)
	return rsp, err
}

// ProtocolError is a server-reported failure (ok=false response).
type ProtocolError struct {
	Code string
	Msg  string
}

func (e *ProtocolError) Error() string { return e.Code + ": " + e.Msg }

// Init opens a session on a named preset and returns its handle.
func (c *Client) Init(preset string) (uint64, error) {
	rsp, err := c.Do(OpInit, Request{Preset: preset})
	if err != nil {
		return 0, err
	}
	return rsp.Sess, nil
}

// Send submits one request packet; accepted=false is HMC_STALL (clock
// and retry).
func (c *Client) Send(sess uint64, link int, cmd uint8, cub int, adrs uint64, tag uint16, payload []uint64) (accepted bool, err error) {
	rsp, err := c.Do(OpSend, Request{Sess: sess, Link: link, Cmd: cmd, Cub: cub, Adrs: adrs, Tag: tag, Payload: payload})
	if err != nil {
		return false, err
	}
	return rsp.Accepted, nil
}

// Recv polls one host link for a response packet.
func (c *Client) Recv(sess uint64, link int) (Response, error) {
	return c.Do(OpRecv, Request{Sess: sess, Link: link})
}

// Clock advances the session one device cycle.
func (c *Client) Clock(sess uint64) (cycle uint64, err error) {
	rsp, err := c.Do(OpClock, Request{Sess: sess})
	return rsp.Cycle, err
}

// ClockN advances the session n device cycles in one round trip.
func (c *Client) ClockN(sess uint64, n uint64) (cycle uint64, err error) {
	rsp, err := c.Do(OpClockN, Request{Sess: sess, N: n})
	return rsp.Cycle, err
}

// ClockUntilRecv clocks until a response is pending or budget cycles
// pass, reporting the cycles consumed and whether a recv would succeed.
func (c *Client) ClockUntilRecv(sess uint64, budget uint64) (advanced uint64, avail bool, err error) {
	rsp, err := c.Do(OpClockUntilRecv, Request{Sess: sess, Budget: budget})
	return rsp.Advanced, rsp.Avail, err
}

// LoadCMC binds a registered CMC operation into the session
// (idempotent per session).
func (c *Client) LoadCMC(sess uint64, name string) error {
	_, err := c.Do(OpLoadCMC, Request{Sess: sess, Name: name})
	return err
}

// Reset rewinds the session to cycle zero in place.
func (c *Client) Reset(sess uint64) error {
	_, err := c.Do(OpReset, Request{Sess: sess})
	return err
}

// Stats snapshots the session's per-device statistics.
func (c *Client) Stats(sess uint64) (Response, error) {
	return c.Do(OpStats, Request{Sess: sess})
}

// CloseSession releases the session; its simulator returns to the
// server's pool.
func (c *Client) CloseSession(sess uint64) error {
	_, err := c.Do(OpClose, Request{Sess: sess})
	return err
}

// Batch accumulates session ops and executes them in one coalesced
// round trip — one frame out, one frame back, the sub-ops run
// back-to-back with no other request against the session in between.
// A Batch is reusable (Begin rewinds it, recycling every buffer) but
// not safe for concurrent use; the results a Do returns stay valid
// until the next Begin/Do.
type Batch struct {
	c    *Client
	req  Request
	call clientCall
	err  error
}

// NewBatch returns an empty batch against sess.
func (c *Client) NewBatch(sess uint64) *Batch {
	b := &Batch{c: c}
	b.call.done = make(chan struct{}, 1)
	b.req.Sess = sess
	return b
}

// Begin rewinds the batch for reuse against sess, keeping its buffers.
func (b *Batch) Begin(sess uint64) {
	b.req.Sess = sess
	b.req.Ops = b.req.Ops[:0]
	b.err = nil
}

func (b *Batch) add(op Op) *Request {
	if len(b.req.Ops) >= MaxBatchOps {
		if b.err == nil {
			b.err = fmt.Errorf("server: batch exceeds %d ops", MaxBatchOps)
		}
		return &Request{}
	}
	var sub *Request
	b.req.Ops, sub = reuseOp(b.req.Ops)
	sub.Op = opNames[op]
	sub.opc = op
	return sub
}

// Send queues a send sub-op.
func (b *Batch) Send(link int, cmd uint8, cub int, adrs uint64, tag uint16, payload []uint64) {
	sub := b.add(OpSend)
	sub.Link, sub.Cmd, sub.Cub, sub.Adrs, sub.Tag = link, cmd, cub, adrs, tag
	sub.Payload = append(sub.Payload[:0], payload...)
}

// Recv queues a recv sub-op.
func (b *Batch) Recv(link int) { b.add(OpRecv).Link = link }

// Clock queues a single-cycle clock sub-op.
func (b *Batch) Clock() { b.add(OpClock) }

// ClockN queues an n-cycle clock sub-op.
func (b *Batch) ClockN(n uint64) { b.add(OpClockN).N = n }

// ClockUntilRecv queues a bounded clock-until-response sub-op.
func (b *Batch) ClockUntilRecv(budget uint64) { b.add(OpClockUntilRecv).Budget = budget }

// LoadCMC queues a CMC-bind sub-op.
func (b *Batch) LoadCMC(name string) { b.add(OpLoadCMC).Name = name }

// Reset queues a session-reset sub-op.
func (b *Batch) Reset() { b.add(OpReset) }

// Stats queues a statistics-snapshot sub-op.
func (b *Batch) Stats() { b.add(OpStats) }

// Do executes the accumulated ops and returns one Response per sub-op,
// positionally. Each has its own ok flag: a failed sub-op does not stop
// the ones after it. The returned slice and its payloads are owned by
// the Batch and stay valid until the next Begin or Do. The outer
// request failing (dead session, protocol error) returns a nil slice
// and the error.
func (b *Batch) Do() ([]Response, error) {
	if b.err != nil {
		return nil, b.err
	}
	rsp, err := b.c.do(OpBatch, &b.req, &b.call)
	if err != nil {
		return nil, err
	}
	return rsp.Rsps, nil
}
