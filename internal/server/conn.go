package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

// conn is one client connection. The reader goroutine decodes request
// lines and routes them to shards; the writer goroutine owns the socket
// write side, batching queued responses and flushing when the queue
// drains. Responses travel reader→shard→out-channel→writer, so a shard
// never blocks on a slow socket: if out fills up (connWriteDepth
// pipelined responses unread), the connection is dropped instead.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan []byte

	// pending counts requests routed to shards whose responses have
	// not yet been handed to the writer; the conn dies only after the
	// last one lands (a half-closed client still gets its answers).
	pending    atomic.Int64
	readerDone atomic.Bool
	dead       atomic.Bool
	dropOnce   sync.Once
	done       chan struct{}
}

// drop marks the connection dead and wakes both loops: the deadline
// unblocks any in-flight Read/Write, and done tells the writer to
// flush what it has and close the socket. Idempotent.
func (c *conn) drop() {
	c.dropOnce.Do(func() {
		c.dead.Store(true)
		c.nc.SetDeadline(time.Unix(0, 0))
		close(c.done)
	})
}

// send hands an encoded response to the writer. It never blocks: a
// full queue means the client stopped reading, and the connection is
// dropped rather than allowed to wedge the shard that produced buf.
func (c *conn) send(buf []byte) {
	if c.dead.Load() {
		putBuf(buf)
		return
	}
	select {
	case c.out <- buf:
	default:
		c.srv.met.connsDropped.Inc()
		c.drop()
		putBuf(buf)
	}
}

// Sentinel read errors the loop can recover from (binary frames) or
// must die on (JSON lines, which cannot be re-synchronized).
var (
	errLineTooLong  = errors.New("line exceeds the length limit")
	errFrameTooBig  = fmt.Errorf("binary frame exceeds %d bytes", maxLineBytes)
	errFrameSkipped = errors.New("oversized binary frame skipped")
)

func (c *conn) readLoop() {
	defer func() {
		c.readerDone.Store(true)
		if c.pending.Load() == 0 {
			c.drop()
		}
		c.srv.connWG.Done()
	}()
	br := bufio.NewReaderSize(c.nc, 4096)
	nshards := uint64(len(c.srv.shards))
	binmode := false
	var scratch []byte
	for {
		var body []byte
		var err error
		if binmode {
			body, err = readFrame(br, &scratch, maxLineBytes)
			if errors.Is(err, errFrameSkipped) {
				// Length-prefixed framing stays in sync across a skipped
				// body; report and keep serving the connection.
				c.srv.met.protoErrs.Inc()
				c.sendBinError(0, 0, errFrameTooBig.Error())
				continue
			}
		} else {
			body, err = readLine(br, &scratch, maxLineBytes)
		}
		if err != nil {
			// EOF, a dead connection, or an unrecoverable stream error
			// (an oversized JSON line cannot be re-synchronized).
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !c.dead.Load() {
				c.srv.met.protoErrs.Inc()
				c.sendError(0, err.Error(), binmode)
			}
			return
		}
		if !binmode && len(bytes.TrimSpace(body)) == 0 {
			continue
		}
		req := getRequest()
		var op Op
		if binmode {
			op, err = DecodeRequestBinary(body, req)
		} else {
			op, err = DecodeRequest(body, req)
		}
		if err != nil {
			c.srv.met.protoErrs.Inc()
			c.sendError(req.ID, err.Error(), binmode)
			putRequest(req)
			continue
		}
		if op == OpHello {
			// hello never reaches a shard: the reader answers it in the
			// current encoding and switches modes for everything after.
			rsp := Response{ID: req.ID, OK: true, Proto: ProtoJSON}
			if req.Proto == ProtoBinary {
				rsp.Proto = ProtoBinary
			}
			c.send(AppendResponse(getBuf(), OpHello, &rsp))
			binmode = rsp.Proto == ProtoBinary
			c.srv.met.ops[OpHello].Inc()
			putRequest(req)
			continue
		}
		if op == OpInit {
			// The session id is minted here so the reader alone decides
			// the owning shard; the shard fills in the rest.
			req.Sess = c.srv.nextSess.Add(1)
		}
		c.pending.Add(1)
		// Blocking send: shard backlog is the protocol's backpressure.
		// Shards drain their channels until Server.Close closes them,
		// which happens only after every reader has exited.
		c.srv.shards[req.Sess%nshards].ch <- task{op: op, req: req, c: c, bin: binmode}
	}
}

// readLine returns the next newline-terminated line with the newline
// (and a trailing \r) stripped; a line whose stripped content exceeds
// max bytes is errLineTooLong. scratch carries fragments of lines that
// span buffer fills; short lines are returned straight from the
// bufio.Reader's buffer without copying.
func readLine(br *bufio.Reader, scratch *[]byte, max int) ([]byte, error) {
	*scratch = (*scratch)[:0]
	for {
		frag, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			*scratch = append(*scratch, frag...)
			// The last byte may be the \r of a CRLF ending still to come.
			if len(*scratch) > max+1 {
				return nil, errLineTooLong
			}
			continue
		}
		if err != nil {
			if err == io.EOF && (len(frag) > 0 || len(*scratch) > 0) {
				// A final unterminated line still counts as a line.
				line := frag
				if len(*scratch) > 0 {
					*scratch = append(*scratch, frag...)
					line = *scratch
				}
				if len(line) > max {
					return nil, errLineTooLong
				}
				return line, nil
			}
			return nil, err
		}
		line := frag
		if len(*scratch) > 0 {
			*scratch = append(*scratch, frag...)
			line = *scratch
		}
		line = line[:len(line)-1]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) > max {
			return nil, errLineTooLong
		}
		return line, nil
	}
}

// readFrame returns the next binary frame body, read into scratch (the
// returned slice aliases it). An oversized frame is skipped in full and
// reported as errFrameSkipped so the caller can keep the connection.
func readFrame(br *bufio.Reader, scratch *[]byte, max int) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > max {
		if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
			return nil, err
		}
		return nil, errFrameSkipped
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	*scratch = (*scratch)[:n]
	if _, err := io.ReadFull(br, *scratch); err != nil {
		return nil, err
	}
	return *scratch, nil
}

// sendError emits a bad_request response from the reader itself —
// malformed input never reaches a shard.
func (c *conn) sendError(id uint64, msg string, bin bool) {
	code := CodeBadRequest
	if i := strings.IndexByte(msg, ':'); i > 0 {
		switch msg[:i] {
		case CodeUnknownOp:
			code = CodeUnknownOp
		case CodeBadVersion:
			code = CodeBadVersion
		case CodeLimit:
			code = CodeLimit
		}
	}
	if bin {
		c.sendBinError(id, codeToByte(code), msg)
		return
	}
	rsp := Response{ID: id, Err: msg, Code: code}
	c.send(AppendResponse(getBuf(), 0, &rsp))
}

func (c *conn) sendBinError(id uint64, codeByte uint8, msg string) {
	code := CodeBadRequest
	if codeByte != 0 {
		code = byteToCode(codeByte)
	}
	rsp := Response{ID: id, Err: msg, Code: code}
	c.send(AppendResponseBinary(getBuf(), 0, &rsp))
}

func (c *conn) writeLoop() {
	defer c.srv.connWG.Done()
	defer c.srv.forget(c)
	bw := bufio.NewWriterSize(c.nc, 16<<10)
	broken := false
	for {
		select {
		case buf := <-c.out:
			c.writeOne(bw, buf, &broken)
			if len(c.out) == 0 && !broken {
				if err := bw.Flush(); err != nil {
					broken = true
					c.drop()
				}
			}
		case <-c.done:
			for {
				select {
				case buf := <-c.out:
					c.writeOne(bw, buf, &broken)
				default:
					if !broken {
						bw.Flush()
					}
					c.nc.Close()
					return
				}
			}
		}
	}
}

func (c *conn) writeOne(bw *bufio.Writer, buf []byte, broken *bool) {
	if !*broken {
		if _, err := bw.Write(buf); err != nil {
			*broken = true
			c.drop()
		}
	}
	putBuf(buf)
}

// Request and response-buffer pools: the hot path (decode → exec →
// encode → write) recycles both, so a warmed-up server allocates
// nothing per operation beyond what the simulator itself does.
var reqPool = sync.Pool{
	New: func() any {
		return &Request{Payload: make([]uint64, 0, packet.MaxPayloadWords)}
	},
}

func getRequest() *Request  { return reqPool.Get().(*Request) }
func putRequest(r *Request) { reqPool.Put(r) }

// bufPool holds response buffers as *[]byte; hdrPool recycles the
// slice-header boxes themselves, so putBuf re-boxes a buffer without
// the `&b` escape allocating a fresh header every call. Each box lives
// in exactly one of the two pools at a time.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

var hdrPool = sync.Pool{
	New: func() any { return new([]byte) },
}

func getBuf() []byte {
	p := bufPool.Get().(*[]byte)
	b := (*p)[:0]
	*p = nil
	hdrPool.Put(p)
	return b
}

func putBuf(b []byte) {
	if cap(b) > 1<<20 {
		return // oversized one-offs (stats on big fleets) are not retained
	}
	p := hdrPool.Get().(*[]byte)
	*p = b
	bufPool.Put(p)
}
