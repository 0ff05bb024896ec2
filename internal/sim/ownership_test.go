package sim

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// TestForwardedRspOwnership pins who owns a forwarded response: one that
// cube 1 built and the host received through cube 0 returns to cube 1's
// free list, so it is the next response cube 1 builds and never one that
// cube 0 builds.
func TestForwardedRspOwnership(t *testing.T) {
	s := newChain(t, 2)
	p1, _ := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x40, TAG: 1, CUB: 1})
	if p1.CUB != 1 {
		t.Fatalf("response CUB %d, want 1", p1.CUB)
	}
	packet.PutRsp(p1)
	p0, _ := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x40, TAG: 2, CUB: 0})
	if p0 == p1 {
		t.Fatal("cube 0 built its response from cube 1's released response")
	}
	q1, _ := sendRecv(t, s, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x40, TAG: 3, CUB: 1})
	if q1 != p1 {
		t.Fatal("cube 1's released response did not return to cube 1's free list")
	}
	packet.PutRsp(p0)
	packet.PutRsp(q1)
}

// ownershipBatch is a burst of reads and writes to both cubes of a
// 2-cube chain, spread over vaults and host links.
func ownershipBatch() []*packet.Rqst {
	var reqs []*packet.Rqst
	for cub := 0; cub < 2; cub++ {
		for i := 0; i < 24; i++ {
			r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 0x140, TAG: uint16(cub*100 + i), CUB: uint8(cub), SLID: uint8(i % 4)}
			if i%3 == 0 {
				r.Cmd, r.Payload = hmccmd.WR16, []uint64{uint64(cub<<8 | i), 0}
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

func sendBatch(t *testing.T, s *Simulator, reqs []*packet.Rqst) {
	t.Helper()
	for _, r := range reqs {
		if err := s.Send(int(r.SLID), r); err != nil {
			t.Fatal(err)
		}
	}
}

// recvBatch clocks until every response of the batch has arrived and
// returns them in arrival order, unreleased.
func recvBatch(t *testing.T, s *Simulator, n int) []*packet.Rsp {
	t.Helper()
	var got []*packet.Rsp
	for c := 0; c < 1000 && len(got) < n; c++ {
		s.Clock()
		for link := 0; link < 4; link++ {
			for {
				rsp, ok := s.Recv(link)
				if !ok {
					break
				}
				got = append(got, rsp)
			}
		}
	}
	if len(got) != n {
		t.Fatalf("received %d of %d responses", len(got), n)
	}
	return got
}

// batchRecord is everything a run exposes: each response's wire image in
// arrival order, every device's counters, the forwarding counters and
// the clock.
type batchRecord struct {
	words      [][]uint64
	stats      []device.Stats
	fwdRqsts   uint64
	fwdRsps    uint64
	finalCycle uint64
}

func record(t *testing.T, s *Simulator, rsps []*packet.Rsp) batchRecord {
	t.Helper()
	rec := batchRecord{fwdRqsts: s.forwardedRqsts, fwdRsps: s.forwardedRsps, finalCycle: s.Cycle()}
	for _, rsp := range rsps {
		w, err := rsp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		rec.words = append(rec.words, w)
	}
	for _, d := range s.Devices() {
		rec.stats = append(rec.stats, d.Stats())
	}
	return rec
}

// TestResetRecyclesParkedRsps pins Reset's release of in-flight
// responses: with responses parked both in the hop-delay queue
// (pendingRsp) and in device queues, Reset returns every one to the free
// list of the cube that built it, so the next run builds all its
// responses from recycled packets, and that run matches a fresh simulator
// bit for bit.
func TestResetRecyclesParkedRsps(t *testing.T) {
	reqs := ownershipBatch()
	s := newChain(t, 2)

	// Warm-up: learn each cube's response packets, then release them.
	owned := [2]map[*packet.Rsp]bool{{}, {}}
	sendBatch(t, s, reqs)
	for _, rsp := range recvBatch(t, s, len(reqs)) {
		owned[rsp.CUB][rsp] = true
	}
	for cub := range owned {
		for rsp := range owned[cub] {
			packet.PutRsp(rsp)
		}
	}

	// Park responses mid-flight: no host Recv, so cube 0's responses wait
	// in its link queues while cube 1's travel the hop-delay queue.
	sendBatch(t, s, reqs)
	parked := func() bool {
		pending := false
		for link, q := range s.pendingRsp {
			if s.rspHead[link] < len(q) {
				pending = true
			}
		}
		return pending && s.Devices()[0].HostRspQueued()
	}
	for c := 0; c < 100 && !parked(); c++ {
		s.Clock()
	}
	if !parked() {
		t.Fatal("no cycle parked responses in both pendingRsp and device queues")
	}
	s.Reset()

	sendBatch(t, s, reqs)
	got := recvBatch(t, s, len(reqs))
	for _, rsp := range got {
		if !owned[rsp.CUB][rsp] {
			t.Fatalf("tag %d: cube %d built a new response; Reset leaked a parked one", rsp.TAG, rsp.CUB)
		}
	}

	fresh := newChain(t, 2)
	sendBatch(t, fresh, reqs)
	want := record(t, fresh, recvBatch(t, fresh, len(reqs)))
	if rec := record(t, s, got); !reflect.DeepEqual(rec, want) {
		t.Errorf("run after Reset diverges from a fresh simulator:\n got %+v\nwant %+v", rec, want)
	}
}
