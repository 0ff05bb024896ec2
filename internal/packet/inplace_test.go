package packet

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hmccmd"
)

// randomRqst builds a request with every field randomized within its
// architected range for the given command.
func randomRqst(rng *rand.Rand, cmd hmccmd.Rqst) *Rqst {
	r := &Rqst{
		Cmd:  cmd,
		CUB:  uint8(rng.Intn(MaxCUB + 1)),
		ADRS: rng.Uint64() & MaxADRS,
		TAG:  uint16(rng.Intn(MaxTag + 1)),
		RRP:  uint16(rng.Intn(1 << 9)),
		FRP:  uint16(rng.Intn(1 << 9)),
		SEQ:  uint8(rng.Intn(1 << 3)),
		Pb:   rng.Intn(2) == 1,
		SLID: uint8(rng.Intn(MaxSLID + 1)),
		RTC:  uint8(rng.Intn(1 << 5)),
	}
	if n := payloadWords(cmd.Info().RqstFlits); n > 0 {
		r.Payload = make([]uint64, n)
		for i := range r.Payload {
			r.Payload[i] = rng.Uint64()
		}
	}
	return r
}

// randomRsp builds a response with every field randomized.
func randomRsp(rng *rand.Rand, lng uint8) *Rsp {
	p := &Rsp{
		Cmd:     hmccmd.RdRS,
		CUB:     uint8(rng.Intn(MaxCUB + 1)),
		TAG:     uint16(rng.Intn(MaxTag + 1)),
		LNG:     lng,
		SLID:    uint8(rng.Intn(MaxSLID + 1)),
		RRP:     uint16(rng.Intn(1 << 9)),
		FRP:     uint16(rng.Intn(1 << 9)),
		SEQ:     uint8(rng.Intn(1 << 3)),
		DINV:    rng.Intn(2) == 1,
		ERRSTAT: uint8(rng.Intn(1 << 7)),
	}
	if n := payloadWords(lng); n > 0 {
		p.Payload = make([]uint64, n)
		for i := range p.Payload {
			p.Payload[i] = rng.Uint64()
		}
	}
	return p
}

// TestEncodeIntoMatchesEncodeRqst pins the in-place request encoder bit
// identical to the legacy allocating encoder across every command, with
// the scratch buffer reused (and dirtied) between packets.
func TestEncodeIntoMatchesEncodeRqst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]uint64, 0, WordsPerFlit*hmccmd.MaxPacketFlits)
	for rq := hmccmd.Rqst(0); int(rq) < hmccmd.NumRqst; rq++ {
		for trial := 0; trial < 50; trial++ {
			r := randomRqst(rng, rq)
			legacy, err := r.Encode()
			if err != nil {
				t.Fatalf("%v: Encode: %v", rq, err)
			}
			got, err := r.EncodeInto(buf)
			if err != nil {
				t.Fatalf("%v: EncodeInto: %v", rq, err)
			}
			if !reflect.DeepEqual(got, legacy) {
				t.Fatalf("%v: EncodeInto %#x != Encode %#x", rq, got, legacy)
			}
			if &got[0] != &buf[:1][0] {
				t.Fatalf("%v: EncodeInto did not reuse the scratch buffer", rq)
			}
		}
	}
}

// TestDecodeIntoMatchesDecodeRqst pins the in-place request decoder
// against the legacy decoder, reusing one destination across packets so
// stale state from the previous decode must be fully overwritten.
func TestDecodeIntoMatchesDecodeRqst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var dst Rqst
	for rq := hmccmd.Rqst(0); int(rq) < hmccmd.NumRqst; rq++ {
		for trial := 0; trial < 50; trial++ {
			words, err := randomRqst(rng, rq).Encode()
			if err != nil {
				t.Fatalf("%v: Encode: %v", rq, err)
			}
			legacy, err := DecodeRqst(words)
			if err != nil {
				t.Fatalf("%v: DecodeRqst: %v", rq, err)
			}
			if err := DecodeRqstInto(&dst, words); err != nil {
				t.Fatalf("%v: DecodeRqstInto: %v", rq, err)
			}
			want := *legacy
			got := dst
			if len(got.Payload) != len(want.Payload) {
				t.Fatalf("%v: payload length %d != %d", rq, len(got.Payload), len(want.Payload))
			}
			for i := range got.Payload {
				if got.Payload[i] != want.Payload[i] {
					t.Fatalf("%v: payload[%d] %#x != %#x", rq, i, got.Payload[i], want.Payload[i])
				}
			}
			got.Payload, want.Payload = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: fields mismatch:\n got %+v\nwant %+v", rq, got, want)
			}
		}
	}
}

// TestEncodeIntoMatchesEncodeRsp does the same for the response encoder.
func TestEncodeIntoMatchesEncodeRsp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]uint64, 0, WordsPerFlit*hmccmd.MaxPacketFlits)
	for lng := uint8(1); lng <= hmccmd.MaxPacketFlits; lng++ {
		for trial := 0; trial < 50; trial++ {
			p := randomRsp(rng, lng)
			legacy, err := p.Encode()
			if err != nil {
				t.Fatalf("LNG=%d: Encode: %v", lng, err)
			}
			got, err := p.EncodeInto(buf)
			if err != nil {
				t.Fatalf("LNG=%d: EncodeInto: %v", lng, err)
			}
			if !reflect.DeepEqual(got, legacy) {
				t.Fatalf("LNG=%d: EncodeInto %#x != Encode %#x", lng, got, legacy)
			}
		}
	}
}

// TestDecodeIntoMatchesDecodeRsp does the same for the response decoder.
func TestDecodeIntoMatchesDecodeRsp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var dst Rsp
	for lng := uint8(1); lng <= hmccmd.MaxPacketFlits; lng++ {
		for trial := 0; trial < 50; trial++ {
			words, err := randomRsp(rng, lng).Encode()
			if err != nil {
				t.Fatalf("LNG=%d: Encode: %v", lng, err)
			}
			legacy, err := DecodeRsp(words)
			if err != nil {
				t.Fatalf("LNG=%d: DecodeRsp: %v", lng, err)
			}
			if err := DecodeRspInto(&dst, words); err != nil {
				t.Fatalf("LNG=%d: DecodeRspInto: %v", lng, err)
			}
			want := *legacy
			got := dst
			if len(got.Payload) != len(want.Payload) {
				t.Fatalf("LNG=%d: payload length %d != %d", lng, len(got.Payload), len(want.Payload))
			}
			for i := range got.Payload {
				if got.Payload[i] != want.Payload[i] {
					t.Fatalf("LNG=%d: payload[%d] %#x != %#x", lng, i, got.Payload[i], want.Payload[i])
				}
			}
			got.Payload, want.Payload = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("LNG=%d: fields mismatch:\n got %+v\nwant %+v", lng, got, want)
			}
		}
	}
}

// TestCRCMatchesReference pins the slicing-by-8 table implementation
// against both the bitwise reference CRC-32K and the standard library's
// Koopman table over the same little-endian byte stream.
func TestCRCMatchesReference(t *testing.T) {
	stdlibCRC := func(words []uint64) uint32 {
		buf := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(buf[8*i:], w)
		}
		return crc32.Checksum(buf, crc32.MakeTable(crc32.Koopman))
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= WordsPerFlit*hmccmd.MaxPacketFlits; n++ {
		for trial := 0; trial < 25; trial++ {
			words := make([]uint64, n)
			for i := range words {
				words[i] = rng.Uint64()
			}
			got := packetCRC(words)
			if ref := crcReference(words); got != ref {
				t.Fatalf("n=%d: packetCRC %#x != bitwise reference %#x", n, got, ref)
			}
			if std := stdlibCRC(words); got != std {
				t.Fatalf("n=%d: packetCRC %#x != hash/crc32 %#x", n, got, std)
			}
			if n > 0 {
				tailFull := append([]uint64(nil), words...)
				tailFull[n-1] |= uint64(rng.Uint32()) << 32
				zeroed := append([]uint64(nil), words...)
				zeroed[n-1] &= 0x00000000FFFFFFFF
				if got, want := crcWithTailZeroed(tailFull), packetCRC(zeroed); got != want {
					t.Fatalf("n=%d: crcWithTailZeroed %#x != %#x", n, got, want)
				}
			}
		}
	}
}

// TestGetRspZeroed checks that free-list responses come back fully
// reset: a dirtied, released response must be indistinguishable from a
// fresh allocation on the next Get, and release must reach only the list
// that built the response.
func TestGetRspZeroed(t *testing.T) {
	var l RspList
	p := l.Get(8)
	p.Cmd = hmccmd.WrRS
	p.TAG = 99
	p.ERRSTAT = 0x7F
	p.DINV = true
	for i := range p.Payload {
		p.Payload[i] = ^uint64(0)
	}
	PutRsp(p)
	for trial := 0; trial < 100; trial++ {
		q := l.Get(8)
		if q != p {
			t.Fatalf("trial %d: Get did not recycle the released response", trial)
		}
		if q.Cmd != 0 || q.TAG != 0 || q.ERRSTAT != 0 || q.DINV {
			t.Fatalf("recycled Rsp not reset: %+v", q)
		}
		if len(q.Payload) != 8 {
			t.Fatalf("recycled Rsp payload length %d, want 8", len(q.Payload))
		}
		for i, w := range q.Payload {
			if w != 0 {
				t.Fatalf("recycled Rsp payload[%d] = %#x, want 0", i, w)
			}
		}
		q.Payload[0] = ^uint64(0)
		PutRsp(q)
	}
	// A second release of the same response, a response no list owns and
	// nil are all no-ops: the list then holds q alone.
	q := l.Get(0)
	PutRsp(q)
	PutRsp(q)
	foreign := &Rsp{Payload: make([]uint64, 2)}
	PutRsp(foreign)
	PutRsp(nil)
	if x := l.Get(0); x != q {
		t.Fatal("Get after a double release did not return the released response")
	}
	if y := l.Get(0); y == q || y == foreign {
		t.Fatal("a no-op release put a response on the list")
	}
	// Responses return to their own list, not to whichever list is used
	// next.
	var other RspList
	a, b := l.Get(2), other.Get(2)
	PutRsp(b)
	PutRsp(a)
	if l.Get(2) != a || other.Get(2) != b {
		t.Fatal("a released response did not return to the list that built it")
	}
}

// FuzzDecodeIntoEquivalence feeds arbitrary word streams to both request
// decoders: they must agree on accept/reject and on every decoded field.
func FuzzDecodeIntoEquivalence(f *testing.F) {
	seed := &Rqst{Cmd: hmccmd.WR64, ADRS: 0x1000, TAG: 7, Payload: make([]uint64, 8)}
	if words, err := seed.Encode(); err == nil {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := wordsOf(data)
		legacy, legacyErr := DecodeRqst(words)
		var dst Rqst
		dst.TAG = 0x7FF // stale state the decode must overwrite
		dst.Payload = make([]uint64, 3)
		err := DecodeRqstInto(&dst, words)
		if (err == nil) != (legacyErr == nil) {
			t.Fatalf("decoders disagree: legacy=%v inplace=%v", legacyErr, err)
		}
		if err != nil {
			return
		}
		if dst.Cmd != legacy.Cmd || dst.TAG != legacy.TAG || dst.ADRS != legacy.ADRS ||
			dst.LNG != legacy.LNG || dst.CUB != legacy.CUB || dst.SLID != legacy.SLID ||
			dst.RRP != legacy.RRP || dst.FRP != legacy.FRP || dst.SEQ != legacy.SEQ ||
			dst.Pb != legacy.Pb || dst.RTC != legacy.RTC {
			t.Fatalf("field mismatch:\n got %+v\nwant %+v", dst, legacy)
		}
		if len(dst.Payload) != len(legacy.Payload) {
			t.Fatalf("payload length %d != %d", len(dst.Payload), len(legacy.Payload))
		}
		for i := range dst.Payload {
			if dst.Payload[i] != legacy.Payload[i] {
				t.Fatalf("payload[%d] %#x != %#x", i, dst.Payload[i], legacy.Payload[i])
			}
		}
	})
}

// FuzzCRCEquivalence feeds arbitrary word streams to the table-driven CRC
// and the bitwise reference: they must always agree.
func FuzzCRCEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := wordsOf(data)
		if got, want := packetCRC(words), crcReference(words); got != want {
			t.Fatalf("packetCRC %#x != reference %#x over %#x", got, want, words)
		}
	})
}
