// Package packet implements the bit-level HMC Gen2 packet model.
//
// A packet travels on the link as a sequence of 128-bit FLITs. The first
// 64 bits of the first FLIT are the packet header and the last 64 bits of
// the last FLIT are the packet tail; for a one-FLIT packet the header and
// tail share the FLIT. In the simulator (as in the C implementation) a
// packet is carried as a []uint64 of length 2*LNG: word 0 is the header,
// word 2*LNG-1 is the tail, and the words between are payload data.
//
// # Field layout
//
// Request header (64 bits):
//
//	CMD  [6:0]    7-bit command code
//	LNG  [11:7]   packet length in FLITs (1..17)
//	TAG  [22:12]  11-bit request tag
//	RES  [23]
//	ADRS [57:24]  34-bit target address
//	RES  [60:58]
//	CUB  [63:61]  3-bit target cube ID
//
// Request tail (64 bits):
//
//	RRP  [8:0]    return retry pointer
//	FRP  [17:9]   forward retry pointer
//	SEQ  [20:18]  3-bit sequence number
//	Pb   [21]     poison bit
//	SLID [24:22]  3-bit source link ID
//	RES  [26:25]
//	RTC  [31:27]  5-bit return token count
//	CRC  [63:32]  CRC-32K over the packet with this field zeroed
//
// Response header (64 bits):
//
//	CMD  [6:0]    low 7 bits of the 8-bit response command code
//	LNG  [11:7]   packet length in FLITs
//	TAG  [22:12]  tag echoed from the request
//	CMD7 [23]     bit 7 of the response command code (custom CMC codes)
//	RES  [38:24]
//	SLID [41:39]  source link ID echoed from the request
//	RES  [60:42]
//	CUB  [63:61]  responding cube ID
//
// Response tail (64 bits):
//
//	RRP     [8:0]
//	FRP     [17:9]
//	SEQ     [20:18]
//	DINV    [21]    data-invalid flag
//	ERRSTAT [28:22] 7-bit error status
//	RES     [31:29]
//	CRC     [63:32]
package packet

import (
	"errors"
	"fmt"

	"repro/internal/hmccmd"
)

// Errors returned by the decode and verification paths.
var (
	// ErrBadLength reports a packet whose word-slice length disagrees with
	// its LNG header field or whose LNG is out of the architected range.
	ErrBadLength = errors.New("packet: length field disagrees with packet size")
	// ErrBadCRC reports a packet whose tail CRC does not match its contents.
	ErrBadCRC = errors.New("packet: CRC mismatch")
	// ErrBadCommand reports a header command code inconsistent with the
	// packet's direction (e.g. a response code in a request packet).
	ErrBadCommand = errors.New("packet: command code invalid for packet direction")
	// ErrNilPacket reports a nil or empty packet buffer.
	ErrNilPacket = errors.New("packet: nil or empty packet buffer")
)

// Field geometry constants.
const (
	// MaxTag is the largest 11-bit request tag.
	MaxTag = (1 << 11) - 1
	// MaxADRS is the largest 34-bit packet address.
	MaxADRS = (uint64(1) << 34) - 1
	// MaxCUB is the largest 3-bit cube ID.
	MaxCUB = (1 << 3) - 1
	// MaxSLID is the largest 3-bit source link ID.
	MaxSLID = (1 << 3) - 1
	// WordsPerFlit is the number of 64-bit words in one 128-bit FLIT.
	WordsPerFlit = 2
)

// Rqst is a decoded HMC request packet.
type Rqst struct {
	// Cmd is the enumerated request command.
	Cmd hmccmd.Rqst
	// CUB is the target cube (device) ID.
	CUB uint8
	// ADRS is the 34-bit target address.
	ADRS uint64
	// TAG identifies the request so the host can match its response.
	TAG uint16
	// LNG is the packet length in FLITs (header+payload+tail). When zero,
	// Encode derives it from the command's architected request length.
	LNG uint8

	// Link-layer tail fields.
	RRP, FRP uint16
	SEQ      uint8
	Pb       bool
	// SLID is the source link the request entered on; responses are
	// routed back to this link.
	SLID uint8
	RTC  uint8

	// Payload holds the data words between header and tail:
	// 2*(LNG-1) words for multi-FLIT packets, empty for one-FLIT packets.
	Payload []uint64
}

// Rsp is a decoded HMC response packet.
type Rsp struct {
	// Cmd is the enumerated response command; CmdCode carries the raw
	// 8-bit code, which differs from the architected mapping only for
	// RspCMC (custom CMC response commands, paper §IV-C1).
	Cmd     hmccmd.Resp
	CmdCode uint8
	// CUB is the responding cube ID.
	CUB uint8
	// TAG echoes the request tag.
	TAG uint16
	// LNG is the packet length in FLITs.
	LNG uint8
	// SLID is the link the response exits on (echoed from the request).
	SLID uint8

	// Link-layer tail fields.
	RRP, FRP uint16
	SEQ      uint8
	// DINV indicates the response data is invalid.
	DINV bool
	// ERRSTAT is the 7-bit error status; zero means success.
	ERRSTAT uint8

	// Payload holds the data words between header and tail.
	Payload []uint64

	// owner is the free list that built the response (RspList.Get), nil
	// for a decoded or hand-built one; PutRsp returns it there.
	owner *RspList
}

// payloadWords returns the number of 64-bit data words in a packet of lng
// FLITs.
func payloadWords(lng uint8) int {
	if lng <= 1 {
		return 0
	}
	return WordsPerFlit * (int(lng) - 1)
}

// effLNG resolves the encoded packet length for the request: the explicit
// LNG when set, else the command's architected request length.
func (r *Rqst) effLNG() uint8 {
	if r.LNG != 0 {
		return r.LNG
	}
	return r.Cmd.Info().RqstFlits
}

// EncodeHead packs the request header word.
func (r *Rqst) EncodeHead() uint64 {
	var h uint64
	h |= uint64(r.Cmd.Code() & 0x7F)
	h |= uint64(r.effLNG()&0x1F) << 7
	h |= uint64(r.TAG&MaxTag) << 12
	h |= (r.ADRS & MaxADRS) << 24
	h |= uint64(r.CUB&MaxCUB) << 61
	return h
}

// EncodeTail packs the request tail word with a zero CRC field. The CRC is
// filled in by Encode, which sees the full packet.
func (r *Rqst) EncodeTail() uint64 {
	var t uint64
	t |= uint64(r.RRP & 0x1FF)
	t |= uint64(r.FRP&0x1FF) << 9
	t |= uint64(r.SEQ&0x7) << 18
	if r.Pb {
		t |= 1 << 21
	}
	t |= uint64(r.SLID&MaxSLID) << 22
	t |= uint64(r.RTC&0x1F) << 27
	return t
}

// EncodeInto serializes the request into its word-level wire form —
// [header, payload..., tail], with the tail CRC computed over the packet —
// reusing buf's backing array when it has capacity for the packet's
// WordsPerFlit × LNG words. It returns the encoded slice, which aliases
// buf unless buf was too small.
func (r *Rqst) EncodeInto(buf []uint64) ([]uint64, error) {
	lng := r.effLNG()
	if lng < 1 || lng > hmccmd.MaxPacketFlits {
		return nil, fmt.Errorf("%w: LNG=%d", ErrBadLength, lng)
	}
	want := payloadWords(lng)
	if len(r.Payload) != want {
		return nil, fmt.Errorf("%w: %d payload words for LNG=%d (want %d)",
			ErrBadLength, len(r.Payload), lng, want)
	}
	n := WordsPerFlit * int(lng)
	words := buf
	if cap(words) < n {
		words = make([]uint64, n)
	} else {
		words = words[:n]
	}
	words[0] = r.EncodeHead()
	copy(words[1:n-1], r.Payload)
	words[n-1] = r.EncodeTail()
	words[n-1] |= uint64(packetCRC(words)) << 32
	return words, nil
}

// Encode serializes the request into a freshly allocated wire form.
func (r *Rqst) Encode() ([]uint64, error) {
	return r.EncodeInto(nil)
}

// CopyFrom deep-copies src into r, reusing r's existing payload backing
// array when it has capacity. After CopyFrom the two packets share no
// state, so the caller may immediately reuse or mutate src.
func (r *Rqst) CopyFrom(src *Rqst) {
	pl := r.Payload
	*r = *src
	r.Payload = append(pl[:0], src.Payload...)
}

// DecodeRqstInto parses and validates a request packet from its wire
// form into dst, reusing dst's payload backing array when it has
// capacity. On error dst is left unchanged.
func DecodeRqstInto(dst *Rqst, words []uint64) error {
	if len(words) == 0 {
		return ErrNilPacket
	}
	head := words[0]
	lng := uint8(head >> 7 & 0x1F)
	if lng < 1 || lng > hmccmd.MaxPacketFlits || len(words) != WordsPerFlit*int(lng) {
		return fmt.Errorf("%w: LNG=%d with %d words", ErrBadLength, lng, len(words))
	}
	if crc := uint32(words[len(words)-1] >> 32); crc != crcWithTailZeroed(words) {
		return ErrBadCRC
	}
	code := uint8(head & 0x7F)
	cmd, ok := hmccmd.FromCode(code)
	if !ok {
		return fmt.Errorf("%w: code %#x", ErrBadCommand, code)
	}
	tail := words[len(words)-1]
	pl := dst.Payload
	*dst = Rqst{
		Cmd:  cmd,
		CUB:  uint8(head >> 61 & MaxCUB),
		ADRS: head >> 24 & MaxADRS,
		TAG:  uint16(head >> 12 & MaxTag),
		LNG:  lng,
		RRP:  uint16(tail & 0x1FF),
		FRP:  uint16(tail >> 9 & 0x1FF),
		SEQ:  uint8(tail >> 18 & 0x7),
		Pb:   tail>>21&1 == 1,
		SLID: uint8(tail >> 22 & MaxSLID),
		RTC:  uint8(tail >> 27 & 0x1F),
	}
	// pl[:0] keeps dst's backing array (and its capacity) alive across
	// decodes, including of one-FLIT packets with no payload.
	dst.Payload = append(pl[:0], words[1:1+payloadWords(lng)]...)
	return nil
}

// DecodeRqst parses and validates a request packet from its wire form
// into a freshly allocated Rqst.
func DecodeRqst(words []uint64) (*Rqst, error) {
	r := new(Rqst)
	if err := DecodeRqstInto(r, words); err != nil {
		return nil, err
	}
	return r, nil
}

// effCode resolves the encoded response command code: the explicit CmdCode
// for custom CMC responses, else the architected code for the enum.
func (p *Rsp) effCode() uint8 {
	if code, ok := p.Cmd.Code(); ok {
		return code
	}
	return p.CmdCode
}

// EncodeHead packs the response header word. The response command code
// field is eight bits wide (paper §IV-C1): bits [6:0] of the code occupy
// CMD[6:0] and bit 7 of the code occupies header bit 23.
func (p *Rsp) EncodeHead() uint64 {
	code := p.effCode()
	var h uint64
	h |= uint64(code & 0x7F)
	h |= uint64(code&0x80) >> 7 << 23
	h |= uint64(p.LNG&0x1F) << 7
	h |= uint64(p.TAG&MaxTag) << 12
	h |= uint64(p.SLID&MaxSLID) << 39
	h |= uint64(p.CUB&MaxCUB) << 61
	return h
}

// EncodeTail packs the response tail word with a zero CRC field.
func (p *Rsp) EncodeTail() uint64 {
	var t uint64
	t |= uint64(p.RRP & 0x1FF)
	t |= uint64(p.FRP&0x1FF) << 9
	t |= uint64(p.SEQ&0x7) << 18
	if p.DINV {
		t |= 1 << 21
	}
	t |= uint64(p.ERRSTAT&0x7F) << 22
	return t
}

// EncodeInto serializes the response into its word-level wire form,
// reusing buf's backing array when it has capacity for the packet's
// WordsPerFlit × LNG words. It returns the encoded slice, which aliases
// buf unless buf was too small.
func (p *Rsp) EncodeInto(buf []uint64) ([]uint64, error) {
	if p.LNG < 1 || p.LNG > hmccmd.MaxPacketFlits {
		return nil, fmt.Errorf("%w: LNG=%d", ErrBadLength, p.LNG)
	}
	want := payloadWords(p.LNG)
	if len(p.Payload) != want {
		return nil, fmt.Errorf("%w: %d payload words for LNG=%d (want %d)",
			ErrBadLength, len(p.Payload), p.LNG, want)
	}
	n := WordsPerFlit * int(p.LNG)
	words := buf
	if cap(words) < n {
		words = make([]uint64, n)
	} else {
		words = words[:n]
	}
	words[0] = p.EncodeHead()
	copy(words[1:n-1], p.Payload)
	words[n-1] = p.EncodeTail()
	words[n-1] |= uint64(packetCRC(words)) << 32
	return words, nil
}

// Encode serializes the response into a freshly allocated wire form.
func (p *Rsp) Encode() ([]uint64, error) {
	return p.EncodeInto(nil)
}

// DecodeRspInto parses and validates a response packet from its wire
// form into dst, reusing dst's payload backing array when it has
// capacity. On error dst is left unchanged.
func DecodeRspInto(dst *Rsp, words []uint64) error {
	if len(words) == 0 {
		return ErrNilPacket
	}
	head := words[0]
	lng := uint8(head >> 7 & 0x1F)
	if lng < 1 || lng > hmccmd.MaxPacketFlits || len(words) != WordsPerFlit*int(lng) {
		return fmt.Errorf("%w: LNG=%d with %d words", ErrBadLength, lng, len(words))
	}
	if crc := uint32(words[len(words)-1] >> 32); crc != crcWithTailZeroed(words) {
		return ErrBadCRC
	}
	code := uint8(head&0x7F) | uint8(head>>23&1)<<7
	tail := words[len(words)-1]
	pl := dst.Payload
	*dst = Rsp{
		Cmd:     hmccmd.RespFromCode(code),
		CmdCode: code,
		CUB:     uint8(head >> 61 & MaxCUB),
		TAG:     uint16(head >> 12 & MaxTag),
		LNG:     lng,
		SLID:    uint8(head >> 39 & MaxSLID),
		RRP:     uint16(tail & 0x1FF),
		FRP:     uint16(tail >> 9 & 0x1FF),
		SEQ:     uint8(tail >> 18 & 0x7),
		DINV:    tail>>21&1 == 1,
		ERRSTAT: uint8(tail >> 22 & 0x7F),
	}
	dst.Payload = append(pl[:0], words[1:1+payloadWords(lng)]...)
	return nil
}

// DecodeRsp parses and validates a response packet from its wire form
// into a freshly allocated Rsp.
func DecodeRsp(words []uint64) (*Rsp, error) {
	p := new(Rsp)
	if err := DecodeRspInto(p, words); err != nil {
		return nil, err
	}
	return p, nil
}
