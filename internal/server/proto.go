// Package server hosts fleets of independent simulators behind a
// versioned, line-delimited JSON protocol — the simulator-as-a-service
// face of the reproduction. One hmcd process owns thousands of
// sessions, each wrapping one sim.Simulator; external drivers (gem5
// ports, script harnesses, load generators) speak the wire protocol
// over TCP or Unix sockets instead of linking the Go packages.
//
// Protocol (version 1): each request is one JSON object on one line,
// each response is one JSON object on one line, matched to its request
// by the client-chosen id. Requests on one connection execute in
// arrival order, and their responses come back in that order; requests
// on different connections execute concurrently, except that requests
// against one session never overlap. A client that wants parallel
// execution opens more connections. The operations mirror the HMC-Sim
// host API:
//
//	{"v":1,"id":1,"op":"init","preset":"4link-4gb"}
//	{"id":2,"op":"send","sess":7,"link":0,"cmd":56,"adrs":64,"tag":1}
//	{"id":3,"op":"clock","sess":7}
//	{"id":4,"op":"clockn","sess":7,"n":32}
//	{"id":5,"op":"clock_until_recv","sess":7,"budget":4096}
//	{"id":6,"op":"recv","sess":7,"link":0}
//	{"id":7,"op":"loadcmc","sess":7,"name":"hmc_lock"}
//	{"id":8,"op":"stats","sess":7}
//	{"id":9,"op":"reset","sess":7}
//	{"id":10,"op":"close","sess":7}
//
// The timing contract is the simulator's own: the server never clocks a
// session on its own initiative, so a wire driver observes the same
// cycle counts, stall behavior and statistics as an in-process caller
// issuing the identical call sequence (the equivalence suite pins
// this, bit for bit).
package server

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/device"
	"repro/internal/packet"
)

// Version is the wire protocol version. init requests must carry it;
// other requests may omit the field.
const Version = 1

// Op enumerates the protocol operations.
type Op int

const (
	OpInit Op = iota
	OpSend
	OpRecv
	OpClock
	OpClockN
	OpClockUntilRecv
	OpLoadCMC
	OpReset
	OpStats
	OpClose
	// OpHello negotiates the connection's wire encoding (see Proto*).
	// It is always line-JSON — the encoding switch takes effect after
	// its response — and touches no session.
	OpHello
	// OpBatch carries N session ops in one frame, executed back-to-back
	// with no other request against the session in between, and
	// answered with one coalesced response.
	OpBatch
	// NumOps is the number of protocol operations.
	NumOps
)

var opNames = [NumOps]string{
	"init", "send", "recv", "clock", "clockn",
	"clock_until_recv", "loadcmc", "reset", "stats", "close",
	"hello", "batch",
}

// Wire encodings negotiable via hello. ProtoJSON (the default) is the
// line-delimited JSON this package documents; ProtoBinary is the
// length-prefixed little-endian framing of binproto.go.
const (
	ProtoJSON   = "json"
	ProtoBinary = "binary"
)

// MaxBatchOps caps the sub-operations one batch frame may carry.
const MaxBatchOps = 1024

func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "op(" + strconv.Itoa(int(o)) + ")"
	}
	return opNames[o]
}

// ParseOp resolves a wire operation name.
func ParseOp(s string) (Op, bool) {
	for i, n := range opNames {
		if s == n {
			return Op(i), true
		}
	}
	return 0, false
}

// Error codes carried in failed responses, stable across releases so
// drivers can switch on them.
const (
	// CodeBadRequest: the line was not a valid request (JSON syntax,
	// missing field, out-of-range value).
	CodeBadRequest = "bad_request"
	// CodeBadVersion: unsupported protocol version.
	CodeBadVersion = "bad_version"
	// CodeUnknownOp: the op name is not part of the protocol.
	CodeUnknownOp = "unknown_op"
	// CodeNoSession: the session id is unknown — never issued, already
	// closed, or evicted by the idle sweep (eviction is
	// indistinguishable from close by design).
	CodeNoSession = "no_session"
	// CodeSessionLimit: the server is at its configured session cap.
	CodeSessionLimit = "session_limit"
	// CodeBadPreset: init named an unknown configuration preset.
	CodeBadPreset = "bad_preset"
	// CodeLimit: a batch size (clockn n, clock_until_recv budget)
	// exceeds the server's per-request cap.
	CodeLimit = "limit"
	// CodeSim: the simulator rejected the operation (invalid command
	// code, bad link, malformed payload, unknown CMC op, full CMC
	// table).
	CodeSim = "sim"
)

// Request is one decoded protocol request. The zero value plus Op is a
// valid request shell; per-op fields follow the wire names.
type Request struct {
	// V is the protocol version; required (and checked) on init,
	// optional elsewhere.
	V int `json:"v,omitempty"`
	// ID is the client-chosen correlation id echoed in the response.
	ID uint64 `json:"id"`
	// Op is the operation name (see Op / ParseOp).
	Op string `json:"op"`
	// Sess is the session handle returned by init (all ops but init).
	Sess uint64 `json:"sess,omitempty"`
	// Preset names the device configuration on init ("4link-4gb",
	// "8link-8gb", "2gb-dev"; case and separators ignored).
	Preset string `json:"preset,omitempty"`
	// Link addresses a host link on send and recv.
	Link int `json:"link,omitempty"`
	// Cmd is the architected 8-bit request command code on send.
	Cmd uint8 `json:"cmd,omitempty"`
	// Cub addresses a cube on send.
	Cub int `json:"cub,omitempty"`
	// Adrs is the request address on send.
	Adrs uint64 `json:"adrs,omitempty"`
	// Tag is the 11-bit request tag on send.
	Tag uint16 `json:"tag,omitempty"`
	// Payload carries write/CMC operand words on send.
	Payload []uint64 `json:"payload,omitempty"`
	// N is the cycle count on clockn.
	N uint64 `json:"n,omitempty"`
	// Budget bounds clock_until_recv.
	Budget uint64 `json:"budget,omitempty"`
	// Name is the registered CMC operation on loadcmc.
	Name string `json:"name,omitempty"`
	// Proto names the requested wire encoding on hello (ProtoJSON,
	// ProtoBinary; empty keeps JSON).
	Proto string `json:"proto,omitempty"`
	// Ops carries a batch frame's sub-operations. Sub-requests hold only
	// op plus per-op fields: the outer request's sess applies to every
	// one, and ids are positional (the k-th sub-response answers the
	// k-th sub-op).
	Ops []Request `json:"ops,omitempty"`

	// opc is the resolved Op, filled by validation/decoding so dispatch
	// and re-encoding never re-parse the name.
	opc Op
}

// Response is one protocol response. ok=false responses carry err and
// code only (plus id); ok=true responses carry the op's result fields.
type Response struct {
	ID   uint64 `json:"id"`
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
	Code string `json:"code,omitempty"`
	// V echoes the negotiated protocol version (init).
	V int `json:"v,omitempty"`
	// Sess is the issued session handle (init).
	Sess uint64 `json:"sess,omitempty"`
	// Cycle is the session's device cycle after the operation (all
	// successful ops) — the timing spine of the protocol.
	Cycle uint64 `json:"cycle,omitempty"`
	// Advanced is the cycles consumed by clock_until_recv.
	Advanced uint64 `json:"adv,omitempty"`
	// Avail reports a pending response after clock_until_recv.
	Avail bool `json:"avail,omitempty"`
	// Accepted is false when send hit HMC_STALL (retry after clocking).
	Accepted bool `json:"accepted,omitempty"`
	// Have reports whether recv returned a response packet.
	Have bool `json:"have,omitempty"`
	// Cmd is the raw response command code (recv, have=true).
	Cmd uint8 `json:"cmd,omitempty"`
	// Tag echoes the request tag (recv, have=true).
	Tag uint16 `json:"tag,omitempty"`
	// Dinv flags invalid response data (recv, have=true).
	Dinv bool `json:"dinv,omitempty"`
	// Errstat is the 7-bit response error status (recv, have=true).
	Errstat uint8 `json:"errstat,omitempty"`
	// Payload carries response data words (recv, have=true).
	Payload []uint64 `json:"payload,omitempty"`
	// Devices snapshots per-device statistics (stats).
	Devices []device.Stats `json:"devices,omitempty"`
	// Proto echoes the negotiated wire encoding (hello).
	Proto string `json:"proto,omitempty"`
	// Rsps carries a batch frame's per-sub-op responses, positionally
	// matched to the request's Ops. Each sub-response has its own ok
	// flag and post-op cycle; a failed sub-op does not stop the ones
	// after it.
	Rsps []Response `json:"rsps,omitempty"`

	// opc mirrors Request.opc for sub-responses, so the batch encoders
	// know each element's field set.
	opc Op
}

// DecodeRequest parses one request line into req (which is fully
// overwritten; its payload buffer is reused) and validates every field
// the server would otherwise have to range-check per op. It returns the
// resolved operation.
//
// Canonical lines (the exact form AppendRequest emits) take an
// allocation-free fast path; anything else falls back to encoding/json.
func DecodeRequest(line []byte, req *Request) (Op, error) {
	if !parseRequestFast(line, req) {
		payload := req.Payload[:0]
		// Ops is deliberately dropped, not reused: json.Unmarshal decodes
		// into recycled slice elements field-by-field, so a stale element
		// would leak fields absent from the new line. The fallback is the
		// rare non-canonical path; letting it allocate is fine.
		*req = Request{Payload: payload}
		if err := json.Unmarshal(line, req); err != nil {
			return 0, fmt.Errorf("%s: %w", CodeBadRequest, err)
		}
	}
	return validateRequest(req)
}

// validateRequest resolves the op names and range-checks every field of
// a decoded request, including a batch's sub-ops. Both wire decoders
// funnel through it, so the two encodings accept bit-identical request
// populations.
func validateRequest(req *Request) (Op, error) {
	op, ok := ParseOp(req.Op)
	if !ok {
		return 0, fmt.Errorf("%s: %q", CodeUnknownOp, req.Op)
	}
	req.opc = op
	if op == OpInit || op == OpHello {
		if req.V != Version {
			return 0, fmt.Errorf("%s: v=%d, want %d", CodeBadVersion, req.V, Version)
		}
	} else if req.V != 0 && req.V != Version {
		return 0, fmt.Errorf("%s: v=%d, want %d", CodeBadVersion, req.V, Version)
	}
	if op == OpHello {
		switch req.Proto {
		case "", ProtoJSON, ProtoBinary:
		default:
			return 0, fmt.Errorf("%s: unknown proto %q", CodeBadRequest, req.Proto)
		}
	}
	if err := validateFields(req); err != nil {
		return 0, err
	}
	if op == OpBatch {
		if len(req.Ops) > MaxBatchOps {
			return 0, fmt.Errorf("%s: batch of %d ops exceeds %d", CodeLimit, len(req.Ops), MaxBatchOps)
		}
		for i := range req.Ops {
			sub := &req.Ops[i]
			sop, ok := ParseOp(sub.Op)
			if !ok {
				return 0, fmt.Errorf("%s: %q", CodeUnknownOp, sub.Op)
			}
			if !batchable(sop) {
				return 0, fmt.Errorf("%s: op %q not allowed in a batch", CodeBadRequest, sub.Op)
			}
			sub.opc = sop
			if err := validateFields(sub); err != nil {
				return 0, err
			}
		}
	}
	return op, nil
}

// batchable reports whether op may ride inside a batch frame: every
// session op except close (which would tear the session out from under
// the rest of the frame). init, hello and nested batches are likewise
// excluded.
func batchable(op Op) bool { return op >= OpSend && op <= OpStats }

func validateFields(req *Request) error {
	if req.Link < 0 || req.Cub < 0 {
		return fmt.Errorf("%s: negative link or cub", CodeBadRequest)
	}
	if req.Tag > packet.MaxTag {
		return fmt.Errorf("%s: tag %d exceeds %d", CodeBadRequest, req.Tag, packet.MaxTag)
	}
	if len(req.Payload) > packet.MaxPayloadWords {
		return fmt.Errorf("%s: payload %d words exceeds %d",
			CodeBadRequest, len(req.Payload), packet.MaxPayloadWords)
	}
	return nil
}

// AppendRequest encodes req for op onto dst in the canonical wire form
// (the form DecodeRequest round-trips and the golden transcripts pin),
// including the trailing newline. It is the client's allocation-free
// encoder.
func AppendRequest(dst []byte, op Op, req *Request) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, req.ID, 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, op.String()...)
	dst = append(dst, '"')
	switch op {
	case OpInit:
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(Version), 10)
		dst = append(dst, `,"preset":`...)
		dst = appendJSONString(dst, req.Preset)
	case OpHello:
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(Version), 10)
		if req.Proto != "" {
			dst = append(dst, `,"proto":`...)
			dst = appendJSONString(dst, req.Proto)
		}
	default:
		dst = append(dst, `,"sess":`...)
		dst = strconv.AppendUint(dst, req.Sess, 10)
	}
	if op == OpBatch {
		dst = append(dst, `,"ops":[`...)
		for i := range req.Ops {
			sub := &req.Ops[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"op":"`...)
			dst = append(dst, sub.opc.String()...)
			dst = append(dst, '"')
			dst = appendRequestOpFields(dst, sub.opc, sub)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	} else {
		dst = appendRequestOpFields(dst, op, req)
	}
	return append(dst, '}', '\n')
}

// appendRequestOpFields encodes the per-op request fields shared by
// top-level requests and batch sub-ops.
func appendRequestOpFields(dst []byte, op Op, req *Request) []byte {
	switch op {
	case OpSend:
		dst = append(dst, `,"link":`...)
		dst = strconv.AppendInt(dst, int64(req.Link), 10)
		dst = append(dst, `,"cmd":`...)
		dst = strconv.AppendUint(dst, uint64(req.Cmd), 10)
		if req.Cub != 0 {
			dst = append(dst, `,"cub":`...)
			dst = strconv.AppendInt(dst, int64(req.Cub), 10)
		}
		dst = append(dst, `,"adrs":`...)
		dst = strconv.AppendUint(dst, req.Adrs, 10)
		dst = append(dst, `,"tag":`...)
		dst = strconv.AppendUint(dst, uint64(req.Tag), 10)
		if len(req.Payload) > 0 {
			dst = append(dst, `,"payload":`...)
			dst = appendWords(dst, req.Payload)
		}
	case OpRecv:
		dst = append(dst, `,"link":`...)
		dst = strconv.AppendInt(dst, int64(req.Link), 10)
	case OpClockN:
		dst = append(dst, `,"n":`...)
		dst = strconv.AppendUint(dst, req.N, 10)
	case OpClockUntilRecv:
		dst = append(dst, `,"budget":`...)
		dst = strconv.AppendUint(dst, req.Budget, 10)
	case OpLoadCMC:
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, req.Name)
	}
	return dst
}

// AppendResponse encodes rsp for op onto dst, including the trailing
// newline — the server's allocation-free response encoder (stats, the
// one cold op with nested structure, falls back to encoding/json for
// its device array).
func AppendResponse(dst []byte, op Op, rsp *Response) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, rsp.ID, 10)
	if !rsp.OK {
		dst = append(dst, `,"ok":false,"err":`...)
		dst = appendJSONString(dst, rsp.Err)
		dst = append(dst, `,"code":`...)
		dst = appendJSONString(dst, rsp.Code)
		return append(dst, '}', '\n')
	}
	dst = append(dst, `,"ok":true`...)
	switch op {
	case OpHello:
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(Version), 10)
		dst = append(dst, `,"proto":`...)
		dst = appendJSONString(dst, rsp.Proto)
	case OpBatch:
		dst = append(dst, `,"rsps":[`...)
		for i := range rsp.Rsps {
			sub := &rsp.Rsps[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			if !sub.OK {
				dst = append(dst, `{"ok":false,"err":`...)
				dst = appendJSONString(dst, sub.Err)
				dst = append(dst, `,"code":`...)
				dst = appendJSONString(dst, sub.Code)
				dst = append(dst, '}')
				continue
			}
			dst = append(dst, `{"ok":true`...)
			dst = appendResponseOpFields(dst, sub.opc, sub)
			dst = append(dst, `,"cycle":`...)
			dst = strconv.AppendUint(dst, sub.Cycle, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	default:
		dst = appendResponseOpFields(dst, op, rsp)
	}
	dst = append(dst, `,"cycle":`...)
	dst = strconv.AppendUint(dst, rsp.Cycle, 10)
	return append(dst, '}', '\n')
}

// appendResponseOpFields encodes the per-op success fields shared by
// top-level responses and batch sub-responses.
func appendResponseOpFields(dst []byte, op Op, rsp *Response) []byte {
	switch op {
	case OpInit:
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(Version), 10)
		dst = append(dst, `,"sess":`...)
		dst = strconv.AppendUint(dst, rsp.Sess, 10)
	case OpSend:
		dst = append(dst, `,"accepted":`...)
		dst = strconv.AppendBool(dst, rsp.Accepted)
	case OpRecv:
		dst = append(dst, `,"have":`...)
		dst = strconv.AppendBool(dst, rsp.Have)
		if rsp.Have {
			dst = append(dst, `,"cmd":`...)
			dst = strconv.AppendUint(dst, uint64(rsp.Cmd), 10)
			dst = append(dst, `,"tag":`...)
			dst = strconv.AppendUint(dst, uint64(rsp.Tag), 10)
			if rsp.Dinv {
				dst = append(dst, `,"dinv":true`...)
			}
			if rsp.Errstat != 0 {
				dst = append(dst, `,"errstat":`...)
				dst = strconv.AppendUint(dst, uint64(rsp.Errstat), 10)
			}
			if len(rsp.Payload) > 0 {
				dst = append(dst, `,"payload":`...)
				dst = appendWords(dst, rsp.Payload)
			}
		}
	case OpClockUntilRecv:
		dst = append(dst, `,"adv":`...)
		dst = strconv.AppendUint(dst, rsp.Advanced, 10)
		dst = append(dst, `,"avail":`...)
		dst = strconv.AppendBool(dst, rsp.Avail)
	case OpStats:
		dst = append(dst, `,"devices":`...)
		b, err := json.Marshal(rsp.Devices)
		if err != nil {
			// device.Stats is a flat struct of integers; this cannot fail.
			panic(fmt.Sprintf("server: encoding device stats: %v", err))
		}
		dst = append(dst, b...)
	}
	return dst
}

func appendWords(dst []byte, words []uint64) []byte {
	dst = append(dst, '[')
	for i, w := range words {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, w, 10)
	}
	return append(dst, ']')
}

// appendJSONString quotes s as a JSON string. Names and error messages
// are ASCII in practice; anything that needs real escaping takes the
// encoding/json slow path.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
