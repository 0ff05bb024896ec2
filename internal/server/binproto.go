package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Binary wire encoding (negotiated per connection via hello, see
// ProtoBinary): each message is one length-prefixed frame,
//
//	u32 body-length | body
//
// with every integer little-endian. A request body is
//
//	op u8 | id u64 | per-op fields
//
// where init carries `preset u8-len+bytes` and every other op starts
// with `sess u64`. The per-op fields mirror the JSON fields in wire
// order: send is `link u16 | cub u16 | cmd u8 | tag u16 | adrs u64 |
// nwords u16 | payload u64×n`, recv is `link u16`, clockn is `n u64`,
// clock_until_recv is `budget u64`, loadcmc is `name u8-len+bytes`, and
// clock/reset/stats/close carry nothing. A batch body is `sess u64 |
// count u16` followed by count sub-ops, each `op u8 | per-op fields`
// (no id or sess — the outer frame's apply).
//
// A response body is
//
//	op u8 | id u64 | status u8
//
// where status 0 is success and anything else is the error code byte
// (wireCodes) followed by `err u16-len+bytes`. Success continues with
// `cycle u64` and per-op fields: init `sess u64`, send `accepted u8`,
// recv `have u8 [cmd u8 | tag u16 | dinv u8 | errstat u8 | nwords u16 |
// payload]`, clock_until_recv `adv u64 | avail u8`, stats a
// `u32-len+bytes` JSON blob of the device statistics (the one cold,
// nested payload), and batch `count u16` followed by count
// sub-responses, each `op u8 | status u8 | (err | cycle u64 +
// per-op fields)`. The op byte makes every response self-describing, so
// one decoder serves all pipelined traffic.
//
// hello itself is always line-JSON; the switch takes effect after its
// response. Frames are hard-capped at maxLineBytes, the same bound a
// JSON request line has.

// wireCodes maps the stable error-code strings to their binary status
// bytes (index = byte value; 0 means success and has no string).
var wireCodes = [...]string{
	1: CodeBadRequest,
	2: CodeBadVersion,
	3: CodeUnknownOp,
	4: CodeNoSession,
	5: CodeSessionLimit,
	6: CodeBadPreset,
	7: CodeLimit,
	8: CodeSim,
}

func codeToByte(code string) uint8 {
	for b, s := range wireCodes {
		if b > 0 && s == code {
			return uint8(b)
		}
	}
	return 1 // unknown codes degrade to bad_request rather than success
}

func byteToCode(b uint8) string {
	if int(b) < len(wireCodes) && wireCodes[b] != "" {
		return wireCodes[b]
	}
	return CodeBadRequest
}

// frameHeaderLen is the length prefix size of one binary frame.
const frameHeaderLen = 4

// beginFrame reserves the length prefix; endFrame back-patches it.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

func endFrame(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeaderLen))
	return dst
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendRequestBinary encodes req for op onto dst as one binary frame,
// length prefix included — the binary-mode counterpart of
// AppendRequest. hello has no binary form (it is the message that
// negotiates the encoding) and panics.
func AppendRequestBinary(dst []byte, op Op, req *Request) []byte {
	if op == OpHello {
		panic("server: hello has no binary encoding")
	}
	dst, at := beginFrame(dst)
	dst = append(dst, byte(op))
	dst = appendU64(dst, req.ID)
	if op == OpInit {
		dst = appendShortString(dst, req.Preset)
		return endFrame(dst, at)
	}
	dst = appendU64(dst, req.Sess)
	if op == OpBatch {
		dst = appendU16(dst, uint16(len(req.Ops)))
		for i := range req.Ops {
			sub := &req.Ops[i]
			dst = append(dst, byte(sub.opc))
			dst = appendRequestOpFieldsBinary(dst, sub.opc, sub)
		}
		return endFrame(dst, at)
	}
	dst = appendRequestOpFieldsBinary(dst, op, req)
	return endFrame(dst, at)
}

func appendRequestOpFieldsBinary(dst []byte, op Op, req *Request) []byte {
	switch op {
	case OpSend:
		dst = appendU16(dst, uint16(req.Link))
		dst = appendU16(dst, uint16(req.Cub))
		dst = append(dst, req.Cmd)
		dst = appendU16(dst, req.Tag)
		dst = appendU64(dst, req.Adrs)
		dst = appendU16(dst, uint16(len(req.Payload)))
		for _, w := range req.Payload {
			dst = appendU64(dst, w)
		}
	case OpRecv:
		dst = appendU16(dst, uint16(req.Link))
	case OpClockN:
		dst = appendU64(dst, req.N)
	case OpClockUntilRecv:
		dst = appendU64(dst, req.Budget)
	case OpLoadCMC:
		dst = appendShortString(dst, req.Name)
	}
	return dst
}

// appendShortString writes a u8-length-prefixed string (truncating
// beyond 255 bytes is a protocol error the caller avoids: preset and
// CMC names are short identifiers).
func appendShortString(dst []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// cursor walks one frame body; all getters fail softly on underflow so
// a truncated or lying frame surfaces as bad_request, never a panic.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) u8() uint8 {
	if c.off+1 > len(c.b) {
		c.bad = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if c.off+2 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) bytes(n int) []byte {
	if n < 0 || c.off+n > len(c.b) {
		c.bad = true
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) shortString() string { return string(c.bytes(int(c.u8()))) }

func (c *cursor) words(dst []uint64, n int) []uint64 {
	if n < 0 || c.off+8*n > len(c.b) {
		c.bad = true
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(c.b[c.off+8*i:]))
	}
	c.off += 8 * n
	return dst
}

var errBinTruncated = fmt.Errorf("%s: truncated or malformed binary frame", CodeBadRequest)

// DecodeRequestBinary parses one binary frame body into req (fully
// overwritten; payload and sub-op buffers are reused) and validates it
// with the same rules as the JSON decoder. Trailing garbage after the
// structured fields is rejected — a frame means exactly one request.
func DecodeRequestBinary(body []byte, req *Request) (Op, error) {
	payload := req.Payload[:0]
	ops := req.Ops[:0]
	*req = Request{Payload: payload, Ops: ops}
	cur := cursor{b: body}
	opb := cur.u8()
	if Op(opb) < 0 || Op(opb) >= NumOps || Op(opb) == OpHello {
		return 0, fmt.Errorf("%s: binary op byte %d", CodeUnknownOp, opb)
	}
	op := Op(opb)
	req.Op = opNames[op]
	req.V = Version
	req.ID = cur.u64()
	switch op {
	case OpInit:
		req.Preset = cur.shortString()
	case OpBatch:
		req.Sess = cur.u64()
		n := int(cur.u16())
		if cur.bad {
			return 0, errBinTruncated
		}
		for i := 0; i < n; i++ {
			var sub *Request
			req.Ops, sub = reuseOp(req.Ops)
			sopb := cur.u8()
			if cur.bad {
				return 0, errBinTruncated
			}
			if Op(sopb) < 0 || Op(sopb) >= NumOps {
				return 0, fmt.Errorf("%s: binary op byte %d", CodeUnknownOp, sopb)
			}
			sub.Op = opNames[Op(sopb)]
			decodeRequestOpFieldsBinary(&cur, Op(sopb), sub)
		}
	default:
		req.Sess = cur.u64()
		decodeRequestOpFieldsBinary(&cur, op, req)
	}
	if cur.bad {
		return 0, errBinTruncated
	}
	if cur.off != len(body) {
		return 0, fmt.Errorf("%s: %d trailing bytes in binary frame", CodeBadRequest, len(body)-cur.off)
	}
	return validateRequest(req)
}

func decodeRequestOpFieldsBinary(cur *cursor, op Op, req *Request) {
	switch op {
	case OpSend:
		req.Link = int(cur.u16())
		req.Cub = int(cur.u16())
		req.Cmd = cur.u8()
		req.Tag = cur.u16()
		req.Adrs = cur.u64()
		req.Payload = cur.words(req.Payload[:0], int(cur.u16()))
	case OpRecv:
		req.Link = int(cur.u16())
	case OpClockN:
		req.N = cur.u64()
	case OpClockUntilRecv:
		req.Budget = cur.u64()
	case OpLoadCMC:
		req.Name = cur.shortString()
	}
}

// reuseOp extends ops by one slot, recycling a previously materialized
// element's payload backing (append would otherwise leave stale fields
// visible; a fully re-initialized element cannot).
func reuseOp(ops []Request) ([]Request, *Request) {
	if len(ops) < cap(ops) {
		ops = ops[:len(ops)+1]
		e := &ops[len(ops)-1]
		p := e.Payload[:0]
		*e = Request{Payload: p}
		return ops, e
	}
	ops = append(ops, Request{})
	return ops, &ops[len(ops)-1]
}

// reuseRsp is reuseOp for response slices.
func reuseRsp(rsps []Response) ([]Response, *Response) {
	if len(rsps) < cap(rsps) {
		rsps = rsps[:len(rsps)+1]
		e := &rsps[len(rsps)-1]
		p := e.Payload[:0]
		*e = Response{Payload: p}
		return rsps, e
	}
	rsps = append(rsps, Response{})
	return rsps, &rsps[len(rsps)-1]
}

// AppendResponseBinary encodes rsp for op onto dst as one binary frame,
// length prefix included — the binary-mode counterpart of
// AppendResponse.
func AppendResponseBinary(dst []byte, op Op, rsp *Response) []byte {
	dst, at := beginFrame(dst)
	dst = append(dst, byte(op))
	dst = appendU64(dst, rsp.ID)
	if !rsp.OK {
		dst = append(dst, codeToByte(rsp.Code))
		dst = appendU16(dst, uint16(min(len(rsp.Err), 1<<16-1)))
		dst = append(dst, rsp.Err[:min(len(rsp.Err), 1<<16-1)]...)
		return endFrame(dst, at)
	}
	dst = append(dst, 0)
	dst = appendU64(dst, rsp.Cycle)
	if op == OpBatch {
		dst = appendU16(dst, uint16(len(rsp.Rsps)))
		for i := range rsp.Rsps {
			sub := &rsp.Rsps[i]
			dst = append(dst, byte(sub.opc))
			if !sub.OK {
				dst = append(dst, codeToByte(sub.Code))
				dst = appendU16(dst, uint16(min(len(sub.Err), 1<<16-1)))
				dst = append(dst, sub.Err[:min(len(sub.Err), 1<<16-1)]...)
				continue
			}
			dst = append(dst, 0)
			dst = appendU64(dst, sub.Cycle)
			dst = appendResponseOpFieldsBinary(dst, sub.opc, sub)
		}
		return endFrame(dst, at)
	}
	dst = appendResponseOpFieldsBinary(dst, op, rsp)
	return endFrame(dst, at)
}

func appendResponseOpFieldsBinary(dst []byte, op Op, rsp *Response) []byte {
	switch op {
	case OpInit:
		dst = appendU64(dst, rsp.Sess)
	case OpSend:
		dst = append(dst, boolByte(rsp.Accepted))
	case OpRecv:
		dst = append(dst, boolByte(rsp.Have))
		if rsp.Have {
			dst = append(dst, rsp.Cmd)
			dst = appendU16(dst, rsp.Tag)
			dst = append(dst, boolByte(rsp.Dinv), rsp.Errstat)
			dst = appendU16(dst, uint16(len(rsp.Payload)))
			for _, w := range rsp.Payload {
				dst = appendU64(dst, w)
			}
		}
	case OpClockUntilRecv:
		dst = appendU64(dst, rsp.Advanced)
		dst = append(dst, boolByte(rsp.Avail))
	case OpStats:
		b, err := json.Marshal(rsp.Devices)
		if err != nil {
			// device.Stats is a flat struct of integers; this cannot fail.
			panic(fmt.Sprintf("server: encoding device stats: %v", err))
		}
		dst = append(dst, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16), byte(len(b)>>24))
		dst = append(dst, b...)
	}
	return dst
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeResponseBinary parses one binary response frame body into rsp
// (fully overwritten; payload and sub-response buffers are reused). The
// op byte makes the frame self-describing, so the caller needs no
// request-side context.
func DecodeResponseBinary(body []byte, rsp *Response) error {
	payload := rsp.Payload[:0]
	rsps := rsp.Rsps[:0]
	*rsp = Response{Payload: payload, Rsps: rsps}
	cur := cursor{b: body}
	opb := cur.u8()
	if Op(opb) < 0 || Op(opb) >= NumOps {
		return fmt.Errorf("server: binary response op byte %d", opb)
	}
	op := Op(opb)
	rsp.opc = op
	rsp.ID = cur.u64()
	status := cur.u8()
	if cur.bad {
		return errBinTruncated
	}
	if status != 0 {
		rsp.Code = byteToCode(status)
		rsp.Err = string(cur.bytes(int(cur.u16())))
		if cur.bad {
			return errBinTruncated
		}
		return nil
	}
	rsp.OK = true
	rsp.Cycle = cur.u64()
	if op == OpBatch {
		n := int(cur.u16())
		if cur.bad {
			return errBinTruncated
		}
		for i := 0; i < n; i++ {
			var sub *Response
			rsp.Rsps, sub = reuseRsp(rsp.Rsps)
			sopb := cur.u8()
			if Op(sopb) < 0 || Op(sopb) >= NumOps {
				return fmt.Errorf("server: binary response op byte %d", sopb)
			}
			sub.opc = Op(sopb)
			sstatus := cur.u8()
			if cur.bad {
				return errBinTruncated
			}
			if sstatus != 0 {
				sub.Code = byteToCode(sstatus)
				sub.Err = string(cur.bytes(int(cur.u16())))
				continue
			}
			sub.OK = true
			sub.Cycle = cur.u64()
			if err := decodeResponseOpFieldsBinary(&cur, Op(sopb), sub); err != nil {
				return err
			}
		}
	} else {
		if err := decodeResponseOpFieldsBinary(&cur, op, rsp); err != nil {
			return err
		}
	}
	if cur.bad {
		return errBinTruncated
	}
	if cur.off != len(body) {
		return fmt.Errorf("server: %d trailing bytes in binary response", len(body)-cur.off)
	}
	return nil
}

func decodeResponseOpFieldsBinary(cur *cursor, op Op, rsp *Response) error {
	switch op {
	case OpInit:
		rsp.V = Version
		rsp.Sess = cur.u64()
	case OpSend:
		rsp.Accepted = cur.u8() != 0
	case OpRecv:
		rsp.Have = cur.u8() != 0
		if rsp.Have {
			rsp.Cmd = cur.u8()
			rsp.Tag = cur.u16()
			rsp.Dinv = cur.u8() != 0
			rsp.Errstat = cur.u8()
			rsp.Payload = cur.words(rsp.Payload[:0], int(cur.u16()))
		}
	case OpClockUntilRecv:
		rsp.Advanced = cur.u64()
		rsp.Avail = cur.u8() != 0
	case OpStats:
		b := cur.bytes(int(cur.u32()))
		if cur.bad {
			return errBinTruncated
		}
		if err := json.Unmarshal(b, &rsp.Devices); err != nil {
			return fmt.Errorf("server: stats blob in binary response: %w", err)
		}
	}
	return nil
}
