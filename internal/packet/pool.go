package packet

import "repro/internal/hmccmd"

// MaxPayloadWords is the largest payload a packet carries: the largest
// architected packet is hmccmd.MaxPacketFlits FLITs, leaving
// WordsPerFlit*(MaxPacketFlits-1) data words between header and tail.
const MaxPayloadWords = WordsPerFlit * (hmccmd.MaxPacketFlits - 1)

// RspList is a free list of response packets owned by one simulator's
// device. It takes no locks: a device, the host loop that drives it and
// every response it builds belong to one goroutine at a time, so a
// response must be released (PutRsp) on the goroutine that drives the
// simulator, before the simulator changes hands. The zero value is an
// empty list ready for use.
type RspList struct {
	free []*Rsp
}

// Get returns a response with every field zeroed and Payload sized to
// words zeroed words, recycled from the list when it holds one. Callers
// that fill the payload via an execute context rely on it starting at
// zero, exactly like a fresh allocation. A recycled response keeps the
// largest payload buffer it has carried, so a list serving one response
// size stops allocating after its first use, and small responses (a CMC
// lock's two words) do not pay for the largest packet. The response
// records l as its owner, so PutRsp returns it here.
func (l *RspList) Get(words int) *Rsp {
	var p *Rsp
	if n := len(l.free); n > 0 {
		p = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		p = new(Rsp)
	}
	pl := p.Payload
	if cap(pl) < words {
		pl = make([]uint64, words)
	} else {
		pl = pl[:words]
		clear(pl)
	}
	*p = Rsp{Payload: pl, owner: l}
	return p
}

// PutRsp returns a response to the list that built it. The caller must
// not retain p or its payload afterwards. Putting nil, a response no
// list owns (decoded or built by hand) or one already put is a no-op, so
// release paths can pass whatever Recv handed back without checking.
func PutRsp(p *Rsp) {
	if p == nil || p.owner == nil {
		return
	}
	l := p.owner
	p.owner = nil
	l.free = append(l.free, p)
}
