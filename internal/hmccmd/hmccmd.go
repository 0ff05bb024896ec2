// Package hmccmd enumerates the Hybrid Memory Cube Gen2 (spec 2.0/2.1)
// request and response command set used by the simulator.
//
// The package mirrors the hmc_rqst_t / hmc_response_t enumerated types of
// the original C implementation: every architected command has an
// enumerated name, a 7-bit command code, and request/response lengths in
// FLITs (one FLIT is 128 bits of packet data, including header and tail).
//
// The Gen2 command space is 7 bits wide (128 codes). The architected
// commands occupy 58 codes; the remaining 70 codes are exposed as CMCnn
// enums (nn being the decimal command code) and may be bound at run time to
// Custom Memory Cube operations (see internal/cmc).
package hmccmd

import "fmt"

// FlitBytes is the size of a single HMC FLIT in bytes (128 bits).
const FlitBytes = 16

// MaxPacketFlits is the maximum packet length in FLITs: a 256-byte
// write request or 256-byte read response (16 data FLITs + 1 header/tail
// FLIT).
const MaxPacketFlits = 17

// NumCodes is the size of the 7-bit request command space.
const NumCodes = 128

// NumCMCSlots is the number of command codes left unused by the Gen2
// specification and therefore available for Custom Memory Cube operations.
const NumCMCSlots = 70

// Rqst is an enumerated HMC request command (the hmc_rqst_t equivalent).
//
// The enumeration includes every architected Gen2 command plus one CMCnn
// entry per unused command code. The zero value is FlowNull, the NULL flow
// packet.
type Rqst uint8

// Architected flow-control commands.
const (
	// FlowNull is the NULL flow packet (ignored by the device).
	FlowNull Rqst = iota
	// PRET is the packet-retry-pointer return flow command.
	PRET
	// TRET is the token-return flow command.
	TRET
	// IRTRY is the init-retry flow command.
	IRTRY

	// WR16 through WR128 are 16..128-byte write requests.
	WR16
	WR32
	WR48
	WR64
	WR80
	WR96
	WR112
	WR128
	// WR256 is the Gen2 256-byte write request.
	WR256

	// MDWR is the mode-register write request.
	MDWR

	// PWR16 through PWR128 are posted (no-response) writes.
	PWR16
	PWR32
	PWR48
	PWR64
	PWR80
	PWR96
	PWR112
	PWR128
	// PWR256 is the Gen2 posted 256-byte write request.
	PWR256

	// RD16 through RD128 are 16..128-byte read requests.
	RD16
	RD32
	RD48
	RD64
	RD80
	RD96
	RD112
	RD128
	// RD256 is the Gen2 256-byte read request.
	RD256

	// MDRD is the mode-register read request.
	MDRD

	// BWR is the 8-byte bit-write request (write-data masked by byte-enable).
	BWR
	// PBWR is the posted 8-byte bit write.
	PBWR
	// BWR8R is the 8-byte bit write with return.
	BWR8R

	// TWOADD8 is the dual 8-byte signed add immediate.
	TWOADD8
	// ADD16 is the single 16-byte signed add immediate.
	ADD16
	// P2ADD8 is the posted dual 8-byte signed add immediate.
	P2ADD8
	// PADD16 is the posted single 16-byte signed add immediate.
	PADD16
	// TWOADDS8R is the dual 8-byte signed add immediate with return.
	TWOADDS8R
	// ADDS16R is the single 16-byte signed add immediate with return.
	ADDS16R
	// INC8 is the 8-byte atomic increment.
	INC8
	// PINC8 is the posted 8-byte atomic increment.
	PINC8

	// XOR16, OR16, NOR16, AND16 and NAND16 are the 16-byte boolean atomics.
	XOR16
	OR16
	NOR16
	AND16
	NAND16

	// CASGT8 is the 8-byte compare-and-swap if greater than.
	CASGT8
	// CASGT16 is the 16-byte compare-and-swap if greater than.
	CASGT16
	// CASLT8 is the 8-byte compare-and-swap if less than.
	CASLT8
	// CASLT16 is the 16-byte compare-and-swap if less than.
	CASLT16
	// CASEQ8 is the 8-byte compare-and-swap if equal.
	CASEQ8
	// CASZERO16 is the 16-byte compare-and-swap if zero.
	CASZERO16
	// EQ8 is the 8-byte equality comparison.
	EQ8
	// EQ16 is the 16-byte equality comparison.
	EQ16
	// SWAP16 is the 16-byte swap/exchange.
	SWAP16

	// cmcBase marks the start of the CMC enumeration block; the CMCnn
	// constants below are laid out contiguously after the architected
	// commands.
	cmcBase
)

// NumRqst is the total number of enumerated request commands (architected
// plus CMC slots).
const NumRqst = int(cmcBase) + NumCMCSlots

// Resp is an enumerated HMC response command (the hmc_response_t
// equivalent).
type Resp uint8

// Response command enumerations. RspCMC permits a loaded CMC operation to
// define a fully custom response command code (paper §IV-C1).
const (
	// RspNone indicates no response packet is generated (posted requests).
	RspNone Resp = iota
	// RdRS is the read response.
	RdRS
	// WrRS is the write response.
	WrRS
	// MdRdRS is the mode-register read response.
	MdRdRS
	// MdWrRS is the mode-register write response.
	MdWrRS
	// RspError is the error response.
	RspError
	// RspCMC marks a custom response command whose 8-bit code is supplied
	// by the CMC operation at registration time.
	RspCMC

	numResp
)

// Architected response command codes (HMC 2.1 §8).
const (
	CodeRdRS    uint8 = 0x38
	CodeWrRS    uint8 = 0x39
	CodeMdRdRS  uint8 = 0x3A
	CodeMdWrRS  uint8 = 0x3B
	CodeRspErr  uint8 = 0x3E
	CodeRspNone uint8 = 0x00
)

// Code returns the architected response command code. For RspCMC the code
// is defined by the CMC operation, so Code returns 0 and false.
func (r Resp) Code() (uint8, bool) {
	switch r {
	case RdRS:
		return CodeRdRS, true
	case WrRS:
		return CodeWrRS, true
	case MdRdRS:
		return CodeMdRdRS, true
	case MdWrRS:
		return CodeMdWrRS, true
	case RspError:
		return CodeRspErr, true
	case RspNone:
		return CodeRspNone, true
	default:
		return 0, false
	}
}

// RespFromCode maps an architected response command code back to its enum.
// Codes outside the architected set map to RspCMC.
func RespFromCode(code uint8) Resp {
	switch code {
	case CodeRdRS:
		return RdRS
	case CodeWrRS:
		return WrRS
	case CodeMdRdRS:
		return MdRdRS
	case CodeMdWrRS:
		return MdWrRS
	case CodeRspErr:
		return RspError
	case CodeRspNone:
		return RspNone
	default:
		return RspCMC
	}
}

var respNames = [numResp]string{
	RspNone:  "RSP_NONE",
	RdRS:     "RD_RS",
	WrRS:     "WR_RS",
	MdRdRS:   "MD_RD_RS",
	MdWrRS:   "MD_WR_RS",
	RspError: "RSP_ERROR",
	RspCMC:   "RSP_CMC",
}

// String returns the specification-style name of the response command.
func (r Resp) String() string {
	if int(r) < len(respNames) {
		return respNames[r]
	}
	return fmt.Sprintf("Resp(%d)", uint8(r))
}

// Class partitions the request command space by functional unit.
type Class uint8

// Command classes.
const (
	// ClassFlow covers link-layer flow-control packets.
	ClassFlow Class = iota
	// ClassRead covers memory read requests.
	ClassRead
	// ClassWrite covers memory write requests that return a response.
	ClassWrite
	// ClassPostedWrite covers posted writes (no response).
	ClassPostedWrite
	// ClassMode covers mode-register access.
	ClassMode
	// ClassAtomic covers Gen2 atomic memory operations with a response.
	ClassAtomic
	// ClassPostedAtomic covers posted atomic memory operations.
	ClassPostedAtomic
	// ClassCMC covers the custom memory cube command slots.
	ClassCMC

	numClass
)

// NumClasses is the number of command classes — the size callers use for
// per-class arrays (e.g. the metrics layer's per-class latency histograms).
const NumClasses = int(numClass)

var classNames = [numClass]string{
	ClassFlow:         "FLOW",
	ClassRead:         "READ",
	ClassWrite:        "WRITE",
	ClassPostedWrite:  "POSTED_WRITE",
	ClassMode:         "MODE",
	ClassAtomic:       "ATOMIC",
	ClassPostedAtomic: "POSTED_ATOMIC",
	ClassCMC:          "CMC",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Info describes the architected properties of one request command.
type Info struct {
	// Name is the specification-style command mnemonic (e.g. "WR64",
	// "CASZERO16", "CMC125").
	Name string
	// Code is the 7-bit command code carried in the packet header.
	Code uint8
	// RqstFlits is the total request packet length in FLITs, including the
	// header and tail.
	RqstFlits uint8
	// RspFlits is the total response packet length in FLITs; zero for
	// posted requests. For CMC slots this is the default (the bound
	// operation overrides it at registration).
	RspFlits uint8
	// Rsp is the architected response command; RspNone for posted
	// requests and flow packets.
	Rsp Resp
	// Class is the functional class of the command.
	Class Class
	// DataBytes is the number of payload data bytes moved by the request
	// (request direction for writes/atomics, response direction for reads).
	DataBytes uint16
}

// Valid reports whether the request enum is within the enumerated range.
func (r Rqst) Valid() bool { return int(r) < NumRqst }

// IsCMC reports whether the request enum is one of the 70 CMC slots.
func (r Rqst) IsCMC() bool { return r >= cmcBase && int(r) < NumRqst }

// Info returns the architected properties for the command. It panics on an
// out-of-range enum, which always indicates a programming error.
func (r Rqst) Info() Info {
	if !r.Valid() {
		panic(fmt.Sprintf("hmccmd: invalid request enum %d", uint8(r)))
	}
	return infoTable[r]
}

// InfoRef returns a pointer into the command property table. The
// returned Info must not be modified; the pointer form exists for hot
// paths (the device clock loop) where the by-value Info copy and the
// repeated table loads of chained r.Info().X calls are measurable. It
// panics on an out-of-range enum exactly like Info.
func (r Rqst) InfoRef() *Info {
	if !r.Valid() {
		panic(fmt.Sprintf("hmccmd: invalid request enum %d", uint8(r)))
	}
	return &infoTable[r]
}

// Code returns the 7-bit command code for the request enum.
func (r Rqst) Code() uint8 { return r.InfoRef().Code }

// String returns the specification-style command mnemonic.
func (r Rqst) String() string {
	if !r.Valid() {
		return fmt.Sprintf("Rqst(%d)", uint8(r))
	}
	return infoTable[r].Name
}

// Posted reports whether the request expects no response packet.
func (r Rqst) Posted() bool {
	i := r.InfoRef()
	return i.Rsp == RspNone && i.Class != ClassFlow
}

// FromCode maps a 7-bit command code to its request enum. The second
// return value is false when the code is out of the 7-bit range.
func FromCode(code uint8) (Rqst, bool) {
	if code >= NumCodes {
		return 0, false
	}
	return codeTable[code], true
}

// CMCForCode returns the CMCnn enum for an unused command code. The second
// return value is false when the code is architected (not a CMC slot) or
// out of range.
func CMCForCode(code uint8) (Rqst, bool) {
	if code >= NumCodes {
		return 0, false
	}
	r := codeTable[code]
	if !r.IsCMC() {
		return 0, false
	}
	return r, true
}

// CMCSlots returns the 70 CMC request enums in ascending command-code
// order. The returned slice is freshly allocated.
func CMCSlots() []Rqst {
	out := make([]Rqst, 0, NumCMCSlots)
	for r := cmcBase; int(r) < NumRqst; r++ {
		out = append(out, r)
	}
	return out
}

// Architected returns every non-CMC request enum in enumeration order. The
// returned slice is freshly allocated.
func Architected() []Rqst {
	out := make([]Rqst, 0, int(cmcBase))
	for r := Rqst(0); r < cmcBase; r++ {
		out = append(out, r)
	}
	return out
}
