package packet

import (
	"sync"

	"repro/internal/hmccmd"
)

// MaxPayloadWords is the payload capacity retained by pooled packets: the
// largest architected packet is hmccmd.MaxPacketFlits FLITs, leaving
// WordsPerFlit*(MaxPacketFlits-1) data words between header and tail.
const MaxPayloadWords = WordsPerFlit * (hmccmd.MaxPacketFlits - 1)

// rspPool recycles response packets across the device execute phase and
// the host receive path. A response built by one simulator may be
// released by a host on another goroutine and redrawn by a different
// simulator (sweep workers and session-server shards all share it), so
// this is a process-wide sync.Pool rather than a device-local free list.
var rspPool = sync.Pool{
	New: func() any {
		return &Rsp{Payload: make([]uint64, 0, MaxPayloadWords)}
	},
}

// GetRsp returns a pooled response with every field zeroed and Payload
// sized to payloadWords zeroed words. Callers that fill the payload via
// an execute context rely on it starting at zero, exactly like a fresh
// allocation.
func GetRsp(payloadWords int) *Rsp {
	p := rspPool.Get().(*Rsp)
	pl := p.Payload
	if cap(pl) < payloadWords {
		pl = make([]uint64, payloadWords)
	} else {
		pl = pl[:payloadWords]
		for i := range pl {
			pl[i] = 0
		}
	}
	*p = Rsp{Payload: pl}
	return p
}

// PutRsp returns a response to the pool. The caller must not retain p or
// its payload afterwards. Putting nil is a no-op, so release paths can
// pass whatever Recv handed back without checking.
func PutRsp(p *Rsp) {
	if p == nil {
		return
	}
	rspPool.Put(p)
}
