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
	"repro/internal/sim"
)

// conn is one client connection. The reader goroutine decodes each
// request and executes it under its session's stripe lock, then queues
// the encoded response on out; the writer goroutine owns the socket
// write side, batching queued responses and flushing when the queue
// drains. The reader never blocks on a slow socket: if out fills up
// (connWriteDepth pipelined responses unread), the connection is
// dropped instead. The reader is out's only sender and closes it when
// it stops, so a client that half-closes still gets every answer: the
// writer flushes them all before it closes the socket.
type conn struct {
	srv  *Server
	nc   net.Conn
	out  chan []byte
	dead atomic.Bool

	// Reader-owned scratch, reused by every request of the connection:
	// the decoded request, the batch's coalesced sub-responses and the
	// pooled response packets their payloads alias until the encode,
	// and the scratch each send's request is built in (Send copies it).
	req     Request
	brsps   []Response
	brefs   []*packet.Rsp
	scratch sim.ReqScratch
}

// drop marks the connection dead and sets a past deadline, which
// unblocks the reader's Read and the writer's Write at once. Only
// Server.Close, a full queue and a failed write drop a connection; an
// ordinary EOF lets the writer flush. Idempotent.
func (c *conn) drop() {
	c.dead.Store(true)
	c.nc.SetDeadline(time.Unix(0, 0))
}

// send hands an encoded response to the writer. It never blocks: a
// full queue means the client stopped reading, and the connection is
// dropped rather than allowed to stall the reader.
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
	defer c.srv.connWG.Done()
	defer close(c.out)
	br := bufio.NewReaderSize(c.nc, 4096)
	binmode := false
	var scratch []byte
	req := &c.req
	// A dropped connection stops at once, even with requests still
	// buffered: nobody would read their answers.
	for !c.dead.Load() {
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
		var op Op
		if binmode {
			op, err = DecodeRequestBinary(body, req)
		} else {
			op, err = DecodeRequest(body, req)
		}
		if err != nil {
			c.srv.met.protoErrs.Inc()
			c.sendError(req.ID, err.Error(), binmode)
			continue
		}
		if op == OpHello {
			// hello touches no session: the reader answers it in the
			// current encoding and switches modes for everything after.
			rsp := Response{ID: req.ID, OK: true, Proto: ProtoJSON}
			if req.Proto == ProtoBinary {
				rsp.Proto = ProtoBinary
			}
			c.send(AppendResponse(getBuf(), OpHello, &rsp))
			binmode = rsp.Proto == ProtoBinary
			c.srv.met.ops[OpHello].Inc()
			continue
		}
		if op == OpInit {
			// The session id is minted here; exec inserts the session
			// under the lock of the id's stripe.
			req.Sess = c.srv.nextSess.Add(1)
		}
		c.exec(op, req, binmode)
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
// The header is peeked from br's buffer, not copied into a local array
// (which would escape through io.ReadFull); a header cut short by EOF
// reads as io.ErrUnexpectedEOF, as io.ReadFull reports it.
func readFrame(br *bufio.Reader, scratch *[]byte, max int) ([]byte, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	br.Discard(frameHeaderLen)
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

// sendError emits a bad_request response for input that never decoded
// into a request.
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

// writeLoop writes queued responses until the reader closes out, then
// closes the socket. After a failed write it keeps draining out without
// writing, so the reader never blocks.
func (c *conn) writeLoop() {
	defer c.srv.connWG.Done()
	defer c.srv.forget(c)
	bw := bufio.NewWriterSize(c.nc, 16<<10)
	broken := false
	for buf := range c.out {
		if !broken {
			_, err := bw.Write(buf)
			if err == nil && len(c.out) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				broken = true
				c.drop()
			}
		}
		putBuf(buf)
	}
	c.nc.Close()
}

// Response-buffer pools: the hot path (decode → exec → encode → write)
// recycles encoded responses, and each connection reuses its decoded
// request, so a warmed-up server allocates nothing per operation beyond
// what the simulator itself does.
//
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
