package server

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	_ "repro/cmcops"
	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/sim"
)

// The equivalence suite pins the protocol's core guarantee: a driver
// speaking the wire protocol observes bit-identical timing, responses
// and statistics to an in-process caller issuing the identical call
// sequence. Each workload runs twice — once against a sim.Simulator
// directly, once through a live server over a pipe — and the full
// response event streams plus final device statistics must match
// exactly.

// driver abstracts the host API surface both sides share.
type driver interface {
	loadCMC(name string) error
	send(link int, cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, payload []uint64) (bool, error)
	recv(link int) (rspEvent, bool, error)
	clock() error
	clockUntilRecv(budget uint64) (uint64, bool, error)
	stats() (uint64, []device.Stats, error)
}

// rspEvent is one received response, cycle-stamped — the unit of the
// equivalence trace.
type rspEvent struct {
	Cycle   uint64
	Cmd     uint8
	Tag     uint16
	Dinv    bool
	Errstat uint8
	Payload []uint64
}

type inprocDriver struct {
	s       *sim.Simulator
	scratch sim.ReqScratch
}

func (d *inprocDriver) loadCMC(name string) error { return d.s.LoadCMC(name) }

func (d *inprocDriver) send(link int, cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, payload []uint64) (bool, error) {
	r, err := d.scratch.Build(cmd, cub, adrs, tag, link, payload)
	if err != nil {
		return false, err
	}
	switch err := d.s.Send(link, r); err {
	case nil:
		return true, nil
	case device.ErrStall:
		return false, nil
	default:
		return false, err
	}
}

func (d *inprocDriver) recv(link int) (rspEvent, bool, error) {
	r, ok := d.s.Recv(link)
	if !ok {
		return rspEvent{}, false, nil
	}
	ev := rspEvent{
		Cycle:   d.s.Cycle(),
		Cmd:     r.CmdCode,
		Tag:     r.TAG,
		Dinv:    r.DINV,
		Errstat: r.ERRSTAT,
		Payload: append([]uint64(nil), r.Payload...),
	}
	sim.ReleaseRsp(r)
	return ev, true, nil
}

func (d *inprocDriver) clock() error { d.s.Clock(); return nil }

func (d *inprocDriver) clockUntilRecv(budget uint64) (uint64, bool, error) {
	adv := d.s.ClockUntilRecv(budget)
	return adv, d.s.RspAvailable(), nil
}

func (d *inprocDriver) stats() (uint64, []device.Stats, error) {
	devs := d.s.Devices()
	out := make([]device.Stats, len(devs))
	for i, dv := range devs {
		out[i] = dv.Stats()
	}
	return d.s.Cycle(), out, nil
}

type wireDriver struct {
	cl   *Client
	sess uint64
}

func (d *wireDriver) loadCMC(name string) error { return d.cl.LoadCMC(d.sess, name) }

func (d *wireDriver) send(link int, cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, payload []uint64) (bool, error) {
	return d.cl.Send(d.sess, link, cmd.Code(), cub, adrs, tag, payload)
}

func (d *wireDriver) recv(link int) (rspEvent, bool, error) {
	rsp, err := d.cl.Recv(d.sess, link)
	if err != nil || !rsp.Have {
		return rspEvent{}, false, err
	}
	return rspEvent{
		Cycle:   rsp.Cycle,
		Cmd:     rsp.Cmd,
		Tag:     rsp.Tag,
		Dinv:    rsp.Dinv,
		Errstat: rsp.Errstat,
		Payload: rsp.Payload,
	}, true, nil
}

func (d *wireDriver) clock() error { _, err := d.cl.Clock(d.sess); return err }

func (d *wireDriver) clockUntilRecv(budget uint64) (uint64, bool, error) {
	return d.cl.ClockUntilRecv(d.sess, budget)
}

func (d *wireDriver) stats() (uint64, []device.Stats, error) {
	rsp, err := d.cl.Stats(d.sess)
	return rsp.Cycle, rsp.Devices, err
}

// readWriteWorkload interleaves stores and loads across every host
// link with stall-retry and periodic run-until-event drains — the
// paper's basic host traffic shape.
func readWriteWorkload(d driver, cfg config.Config) ([]rspEvent, error) {
	var trace []rspEvent
	outstanding := 0
	drain := func() error {
		for outstanding > 0 {
			adv, avail, err := d.clockUntilRecv(1 << 16)
			if err != nil {
				return err
			}
			if !avail {
				return fmt.Errorf("%d responses missing after %d idle cycles", outstanding, adv)
			}
			for l := 0; l < cfg.Links; l++ {
				for {
					ev, ok, err := d.recv(l)
					if err != nil {
						return err
					}
					if !ok {
						break
					}
					trace = append(trace, ev)
					outstanding--
				}
			}
		}
		return nil
	}

	var payload [8]uint64
	for i := 0; i < 48; i++ {
		link := i % cfg.Links
		adrs := uint64(i%16)*uint64(cfg.MaxBlockSize) + uint64(i/16)*(1<<20)
		tag := uint16(i + 1)
		var cmd hmccmd.Rqst
		var pl []uint64
		if i%3 == 0 {
			for w := range payload {
				payload[w] = uint64(i)<<8 | uint64(w)
			}
			cmd, pl = hmccmd.WR64, payload[:]
		} else {
			cmd, pl = hmccmd.RD64, nil
		}
		for {
			acc, err := d.send(link, cmd, 0, adrs, tag, pl)
			if err != nil {
				return nil, err
			}
			if acc {
				break
			}
			if err := d.clock(); err != nil {
				return nil, err
			}
		}
		outstanding++
		if i%8 == 7 {
			if err := drain(); err != nil {
				return nil, err
			}
		}
	}
	return trace, drain()
}

// cmcLockWorkload loads the paper's mutex library and runs four
// deterministic lock/unlock contenders — CMC requests, stalls, polls
// and retries all through the driver.
func cmcLockWorkload(d driver, cfg config.Config) ([]rspEvent, error) {
	for _, op := range []string{"hmc_lock", "hmc_unlock"} {
		if err := d.loadCMC(op); err != nil {
			return nil, err
		}
	}
	const lockAddr = 0x80
	type actorState int
	const (
		needLock actorState = iota
		waitLock
		needUnlock
		waitUnlock
		doneState
	)
	states := [4]actorState{}
	var trace []rspEvent
	remaining := len(states)
	for iter := 0; iter < 200000 && remaining > 0; iter++ {
		for a := range states {
			tid := uint64(a + 1)
			link := a % cfg.Links
			tag := uint16(a + 1)
			switch states[a] {
			case needLock, needUnlock:
				cmd := hmccmd.CMC125 // hmc_lock
				if states[a] == needUnlock {
					cmd = hmccmd.CMC127 // hmc_unlock
				}
				acc, err := d.send(link, cmd, 0, lockAddr, tag, []uint64{tid, 0})
				if err != nil {
					return nil, err
				}
				if acc {
					states[a]++
				}
			}
		}
		if err := d.clock(); err != nil {
			return nil, err
		}
		for l := 0; l < cfg.Links; l++ {
			for {
				ev, ok, err := d.recv(l)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				trace = append(trace, ev)
				a := int(ev.Tag) - 1
				switch states[a] {
				case waitLock:
					if len(ev.Payload) > 0 && ev.Payload[0] == 1 {
						states[a] = needUnlock
					} else {
						states[a] = needLock // contended; retry
					}
				case waitUnlock:
					states[a] = doneState
					remaining--
				}
			}
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("%d actors never finished", remaining)
	}
	return trace, nil
}

// batchDriver issues every driver op as a one-op batch frame, so the
// whole workload flows through batch framing, sub-op dispatch and
// sub-response decode; multi-op coalescing is pinned separately by
// TestBatchCoalescedRound.
type batchDriver struct {
	cl   *Client
	b    *Batch
	sess uint64
}

func newBatchDriver(cl *Client, sess uint64) *batchDriver {
	return &batchDriver{cl: cl, b: cl.NewBatch(sess), sess: sess}
}

func (d *batchDriver) one() (Response, error) {
	rsps, err := d.b.Do()
	if err != nil {
		return Response{}, err
	}
	r := rsps[0]
	if !r.OK {
		return r, &ProtocolError{Code: r.Code, Msg: r.Err}
	}
	return r, nil
}

func (d *batchDriver) loadCMC(name string) error {
	d.b.Begin(d.sess)
	d.b.LoadCMC(name)
	_, err := d.one()
	return err
}

func (d *batchDriver) send(link int, cmd hmccmd.Rqst, cub int, adrs uint64, tag uint16, payload []uint64) (bool, error) {
	d.b.Begin(d.sess)
	d.b.Send(link, cmd.Code(), cub, adrs, tag, payload)
	r, err := d.one()
	return r.Accepted, err
}

func (d *batchDriver) recv(link int) (rspEvent, bool, error) {
	d.b.Begin(d.sess)
	d.b.Recv(link)
	r, err := d.one()
	if err != nil || !r.Have {
		return rspEvent{}, false, err
	}
	return rspEvent{
		Cycle:   r.Cycle,
		Cmd:     r.Cmd,
		Tag:     r.Tag,
		Dinv:    r.Dinv,
		Errstat: r.Errstat,
		Payload: append([]uint64(nil), r.Payload...),
	}, true, nil
}

func (d *batchDriver) clock() error {
	d.b.Begin(d.sess)
	d.b.Clock()
	_, err := d.one()
	return err
}

func (d *batchDriver) clockUntilRecv(budget uint64) (uint64, bool, error) {
	d.b.Begin(d.sess)
	d.b.ClockUntilRecv(budget)
	r, err := d.one()
	return r.Advanced, r.Avail, err
}

func (d *batchDriver) stats() (uint64, []device.Stats, error) {
	d.b.Begin(d.sess)
	d.b.Stats()
	r, err := d.one()
	return r.Cycle, r.Devices, err
}

// TestWireEquivalence runs both workloads on both paper presets through
// both drivers and requires bit-identical traces and statistics — in
// every wire mode: line-JSON and binary framing, plain ops and batch
// frames.
func TestWireEquivalence(t *testing.T) {
	srv := New(Config{Shards: 2})
	defer srv.Close()

	modes := []struct {
		name    string
		proto   string
		batched bool
	}{
		{"json", ProtoJSON, false},
		{"binary", ProtoBinary, false},
		{"json-batch", ProtoJSON, true},
		{"binary-batch", ProtoBinary, true},
	}
	workloads := []struct {
		name string
		run  func(driver, config.Config) ([]rspEvent, error)
	}{
		{"readwrite", readWriteWorkload},
		{"cmclock", cmcLockWorkload},
	}
	presets := []struct {
		name string
		cfg  config.Config
	}{
		{"4link-4gb", config.FourLink4GB()},
		{"8link-8gb", config.EightLink8GB()},
	}
	for _, mode := range modes {
		here, there := net.Pipe()
		srv.ServeConn(there)
		cl := NewClient(here)
		defer cl.Close()
		if err := cl.Hello(mode.proto); err != nil {
			t.Fatalf("%s: hello: %v", mode.name, err)
		}
		for _, wl := range workloads {
			for _, p := range presets {
				t.Run(mode.name+"/"+wl.name+"/"+p.name, func(t *testing.T) {
					ref, err := sim.New(p.cfg)
					if err != nil {
						t.Fatal(err)
					}
					in := &inprocDriver{s: ref}
					wantTrace, err := wl.run(in, p.cfg)
					if err != nil {
						t.Fatalf("in-process run: %v", err)
					}
					wantCycle, wantStats, err := in.stats()
					if err != nil {
						t.Fatal(err)
					}

					sess, err := cl.Init(p.name)
					if err != nil {
						t.Fatal(err)
					}
					var wd driver = &wireDriver{cl: cl, sess: sess}
					if mode.batched {
						wd = newBatchDriver(cl, sess)
					}
					gotTrace, err := wl.run(wd, p.cfg)
					if err != nil {
						t.Fatalf("wire run: %v", err)
					}
					gotCycle, gotStats, err := wd.stats()
					if err != nil {
						t.Fatal(err)
					}
					if err := cl.CloseSession(sess); err != nil {
						t.Fatal(err)
					}

					if len(gotTrace) != len(wantTrace) {
						t.Fatalf("trace length %d, want %d", len(gotTrace), len(wantTrace))
					}
					for i := range wantTrace {
						w, g := wantTrace[i], gotTrace[i]
						if len(w.Payload) == 0 {
							w.Payload = nil
						}
						if len(g.Payload) == 0 {
							g.Payload = nil
						}
						if !reflect.DeepEqual(w, g) {
							t.Fatalf("trace[%d]:\n wire  %+v\n local %+v", i, g, w)
						}
					}
					if gotCycle != wantCycle {
						t.Errorf("final cycle %d, want %d", gotCycle, wantCycle)
					}
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Errorf("stats diverge:\n wire  %+v\n local %+v", gotStats, wantStats)
					}
				})
			}
		}
	}
}
