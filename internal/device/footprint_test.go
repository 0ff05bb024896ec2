package device

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// bankArrays lists the vaults holding a bank array.
func bankArrays(d *Device) []int {
	var ids []int
	for i := range d.vaults {
		if d.vaults[i] != nil && d.vaults[i].banks != nil {
			ids = append(ids, i)
		}
	}
	return ids
}

// builtVaults lists the vaults the device has built.
func builtVaults(d *Device) []int {
	var ids []int
	for i, v := range d.vaults {
		if v != nil {
			ids = append(ids, i)
		}
	}
	return ids
}

// hasSlotArray reports whether d's CMC table holds a slot array.
func hasSlotArray(d *Device) bool {
	return !reflect.ValueOf(d.cmcTab).Elem().FieldByName("slots").IsNil()
}

// retryRings counts the link directions holding a retry ring.
func retryRings(d *Device) int {
	n := 0
	for _, p := range d.ports {
		if p == nil {
			continue
		}
		for _, dir := range []*linkDir{&p.rqstDir, &p.rspDir} {
			if dir.ring != nil {
				n++
			}
		}
	}
	return n
}

// TestVaultsOnFirstUse pins the state New leaves for first use: no vault,
// no CMC slot array and no retry ring. A request builds its own vault
// only; Vault on an unbuilt index reports what a vault that existed all
// along reports; a fault plan builds a ring per direction of each built
// port, a port built under it gets its own, and a disabled plan drops
// them; and Reset+Trim drops the vaults and an empty slot array, after
// which the device runs as a fresh one does.
func TestVaultsOnFirstUse(t *testing.T) {
	cfg := config.FourLink4GB()
	d := newDev(t, cfg)
	if ids := builtVaults(d); ids != nil {
		t.Fatalf("New built vaults %v", ids)
	}
	if hasSlotArray(d) {
		t.Fatal("New built a CMC slot array")
	}
	if n := retryRings(d); n != 0 {
		t.Fatalf("New built %d retry rings", n)
	}

	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x40, TAG: 1})
	if rsp.ERRSTAT != ErrstatOK {
		t.Fatalf("read: ERRSTAT %#x", rsp.ERRSTAT)
	}
	if ids := builtVaults(d); !reflect.DeepEqual(ids, []int{1}) {
		t.Fatalf("vaults built by one vault-1 read: %v, want [1]", ids)
	}

	// The reference vault exists from cycle 0 and is sampled every cycle.
	ref := newDev(t, cfg)
	ref.ForceWalk = true
	rv, err := ref.Vault(5)
	if err != nil {
		t.Fatal(err)
	}
	for ref.Cycle() < d.Cycle() {
		ref.Clock()
	}
	v, err := d.Vault(5)
	if err != nil {
		t.Fatal(err)
	}
	if v.RqstStats() != rv.RqstStats() || v.RspStats() != rv.RspStats() {
		t.Errorf("unbuilt vault stats %+v/%+v, want %+v/%+v", v.RqstStats(), v.RspStats(), rv.RqstStats(), rv.RspStats())
	}
	if got := v.RqstStats().Samples(); got != d.Cycle() {
		t.Errorf("unbuilt vault samples %d, want the %d cycles", got, d.Cycle())
	}
	if !reflect.DeepEqual(v.BankOps(), rv.BankOps()) {
		t.Errorf("unbuilt vault BankOps %v, want %v", v.BankOps(), rv.BankOps())
	}

	if err := d.SetFaultPlan(fault.Plan{Rate: 0.1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if n := retryRings(d); n != 2 {
		t.Fatalf("enabled fault plan built %d retry rings, want port 0's 2", n)
	}
	if _, err := d.Link(3); err != nil {
		t.Fatal(err)
	}
	if n := retryRings(d); n != 4 {
		t.Fatalf("a port built under the plan left %d retry rings, want 4", n)
	}
	if err := d.SetFaultPlan(fault.Plan{}); err != nil {
		t.Fatal(err)
	}
	if n := retryRings(d); n != 0 {
		t.Fatalf("disabled fault plan left %d retry rings", n)
	}

	if err := d.CMC().Load(testFailOp{}); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.CMC56, ADRS: 0x80, TAG: 2})
	if err := d.CMC().Unload(56); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if ids := builtVaults(d); !reflect.DeepEqual(ids, []int{1, 2, 5}) || !hasSlotArray(d) {
		t.Fatalf("Reset dropped warm state: vaults %v, slot array %v", ids, hasSlotArray(d))
	}
	d.Trim()
	if ids := builtVaults(d); ids != nil {
		t.Errorf("vaults after Reset+Trim: %v", ids)
	}
	if hasSlotArray(d) {
		t.Error("Reset+Trim kept an empty CMC slot array")
	}

	fresh := newDev(t, cfg)
	run := func(dev *Device) (out [][]uint64) {
		for i, a := range []uint64{0x1000, 0x40, 0x1040, cfg.CapacityBytes()} {
			r := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: a, TAG: uint16(i), Payload: []uint64{a, ^a}}
			if i%2 == 1 {
				r = &packet.Rqst{Cmd: hmccmd.RD16, ADRS: a, TAG: uint16(i)}
			}
			rsp, _ := roundTrip(t, dev, r)
			w, err := rsp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w)
		}
		return out
	}
	if a, b := run(d), run(fresh); !reflect.DeepEqual(a, b) {
		t.Errorf("responses after Reset+Trim %x, fresh %x", a, b)
	}
	if d.Stats() != fresh.Stats() {
		t.Errorf("stats after Reset+Trim %+v, fresh %+v", d.Stats(), fresh.Stats())
	}
	if a, b := d.BuildReport(), fresh.BuildReport(); !reflect.DeepEqual(a, b) {
		t.Errorf("report after Reset+Trim %+v, fresh %+v", a, b)
	}
	if a, b := builtVaults(d), builtVaults(fresh); !reflect.DeepEqual(a, b) {
		t.Errorf("vaults built after Reset+Trim %v, fresh %v", a, b)
	}
}

// builtPorts lists the ports the device has built.
func builtPorts(d *Device) []int {
	var ids []int
	for i, p := range d.ports {
		if p != nil {
			ids = append(ids, i)
		}
	}
	return ids
}

// TestPortsOnFirstUse pins the ports' first-use rule: New builds none, a
// round trip on link 0 builds port 0 only, and the crossbar statistics,
// the report, the metrics-facing occupancies and Recv read an unbuilt
// port as the idle port it stands for without building it — the same
// statistics a port built at cycle zero and never used reports. Link
// builds the port it is asked for. Reset+Trim drops the ports, after
// which the device runs as a fresh one does.
func TestPortsOnFirstUse(t *testing.T) {
	for _, cfg := range []config.Config{config.FourLink4GB(), config.EightLink8GB()} {
		d := newDev(t, cfg)
		if ids := builtPorts(d); ids != nil {
			t.Fatalf("%v: New built ports %v", cfg, ids)
		}
		// ref builds every port at cycle zero, walks them every cycle,
		// and runs the same traffic.
		ref := newDev(t, cfg)
		ref.ForceWalk = true
		for i := 0; i < cfg.Links; i++ {
			if _, err := ref.Link(i); err != nil {
				t.Fatal(err)
			}
		}
		for _, dev := range []*Device{d, ref} {
			roundTrip(t, dev, &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x40, TAG: 1, Payload: []uint64{1, 2}})
			roundTrip(t, dev, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x40, TAG: 2})
			for i := 0; i < 3; i++ {
				dev.Clock()
			}
		}
		if ids := builtPorts(d); !reflect.DeepEqual(ids, []int{0}) {
			t.Fatalf("%v: ports built by link-0 round trips: %v, want [0]", cfg, ids)
		}
		if d.Stats() != ref.Stats() {
			t.Errorf("%v: stats %+v, with every port built %+v", cfg, d.Stats(), ref.Stats())
		}
		if a, b := d.BuildReport(), ref.BuildReport(); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: report %+v, with every port built %+v", cfg, a, b)
		}
		last := cfg.Links - 1
		for i := 0; i < cfg.Links; i++ {
			if a, b := d.Xbar().RqstStats(i), ref.Xbar().RqstStats(i); a != b {
				t.Errorf("%v: crossbar port %d request stats %+v, want %+v", cfg, i, a, b)
			}
			if a, b := d.Xbar().RspStats(i), ref.Xbar().RspStats(i); a != b {
				t.Errorf("%v: crossbar port %d response stats %+v, want %+v", cfg, i, a, b)
			}
		}
		if _, ok := d.Recv(last); ok || d.HostRspQueued() || d.Xbar().TotalOccupancy() != 0 {
			t.Errorf("%v: an idle device reports a queued packet", cfg)
		}
		if ids := builtPorts(d); !reflect.DeepEqual(ids, []int{0}) {
			t.Fatalf("%v: reading statistics built ports: %v, want [0]", cfg, ids)
		}
		l, err := d.Link(last)
		if err != nil {
			t.Fatal(err)
		}
		rl, _ := ref.Link(last)
		if l.RqstStats() != rl.RqstStats() || l.RspStats() != rl.RspStats() {
			t.Errorf("%v: late link %d stats %+v/%+v, want %+v/%+v", cfg, last,
				l.RqstStats(), l.RspStats(), rl.RqstStats(), rl.RspStats())
		}
		if got := l.RqstStats().Samples(); got != d.Cycle() {
			t.Errorf("%v: late link samples %d, want the %d cycles", cfg, got, d.Cycle())
		}
		if ids := builtPorts(d); !reflect.DeepEqual(ids, []int{0, last}) {
			t.Fatalf("%v: ports after Link(%d): %v", cfg, last, ids)
		}

		d.Reset()
		if ids := builtPorts(d); !reflect.DeepEqual(ids, []int{0, last}) {
			t.Fatalf("%v: Reset dropped ports: %v", cfg, ids)
		}
		d.Trim()
		if ids := builtPorts(d); ids != nil {
			t.Fatalf("%v: ports after Reset+Trim: %v", cfg, ids)
		}
		fresh := newDev(t, cfg)
		for _, dev := range []*Device{d, fresh} {
			for i := 0; i < 4; i++ {
				r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 0x40, TAG: uint16(i), SLID: 1}
				if err := dev.Send(1, r); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < 8; c++ {
				dev.Clock()
			}
		}
		for {
			a, okA := d.Recv(1)
			b, okB := fresh.Recv(1)
			if okA != okB {
				t.Fatalf("%v: trimmed device recv %v, fresh %v", cfg, okA, okB)
			}
			if !okA {
				break
			}
			wa, errA := a.Encode()
			wb, errB := b.Encode()
			if errA != nil || errB != nil || !reflect.DeepEqual(wa, wb) {
				t.Fatalf("%v: responses diverge: %x vs %x (%v, %v)", cfg, wa, wb, errA, errB)
			}
		}
		if d.Stats() != fresh.Stats() {
			t.Errorf("%v: stats after Reset+Trim %+v, fresh %+v", cfg, d.Stats(), fresh.Stats())
		}
		if a, b := d.BuildReport(), fresh.BuildReport(); !reflect.DeepEqual(a, b) {
			t.Errorf("%v: report after Reset+Trim %+v, fresh %+v", cfg, a, b)
		}
		if a, b := builtPorts(d), builtPorts(fresh); !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, []int{1}) {
			t.Errorf("%v: ports built after Reset+Trim %v, fresh %v, want [1]", cfg, a, b)
		}
	}
}

// TestBanksOnFirstUse pins the lazy bank records: New allocates none, an
// out-of-range request allocates none, an in-range request allocates only
// its own vault's, and BankOps on an untouched vault still reports
// BanksPerVault zeros.
func TestBanksOnFirstUse(t *testing.T) {
	cfg := config.FourLink4GB()
	d := newDev(t, cfg)
	if ids := bankArrays(d); ids != nil {
		t.Fatalf("New allocated bank arrays for vaults %v", ids)
	}
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: cfg.CapacityBytes(), TAG: 1})
	if rsp.ERRSTAT != ErrstatBadAddr {
		t.Fatalf("out-of-range read: ERRSTAT %#x, want %#x", rsp.ERRSTAT, ErrstatBadAddr)
	}
	if ids := bankArrays(d); ids != nil {
		t.Fatalf("out-of-range request allocated bank arrays for vaults %v", ids)
	}
	roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 2})
	if ids := bankArrays(d); !reflect.DeepEqual(ids, []int{0}) {
		t.Fatalf("bank arrays after one vault-0 read: %v, want [0]", ids)
	}
	for _, i := range []int{0, 1, cfg.Vaults - 1} {
		v, err := d.Vault(i)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, cfg.BanksPerVault)
		if i == 0 {
			want[0] = 1
		}
		if got := v.BankOps(); !reflect.DeepEqual(got, want) {
			t.Errorf("vault %d BankOps %v, want %v", i, got, want)
		}
	}
}

// TestResetTrimFootprint pins what Reset keeps and Trim drops: Reset
// clears the allocated bank arrays in place and keeps the response free
// list; Trim leaves no bank array and no free response. A response the
// host still held across Reset and Trim may be released afterwards, and
// the device then runs exactly as a fresh one does.
func TestResetTrimFootprint(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.BankLatencyCycles = 2 // exercise the bank timing state too
	d := newDev(t, cfg)
	if err := d.CMC().Load(testFailOp{}); err != nil {
		t.Fatal(err)
	}
	held, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0x40, TAG: 1})
	freed := map[*packet.Rsp]bool{}
	for i, a := range []uint64{0, 0x1000, 0x2000} {
		rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: a, TAG: uint16(2 + i)})
		freed[rsp] = true
		packet.PutRsp(rsp)
	}
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.CMC56, TAG: 9})
	freed[rsp] = true
	packet.PutRsp(rsp)
	touched := bankArrays(d)
	if len(touched) == 0 {
		t.Fatal("no vault allocated banks")
	}
	d.Reset()
	if got := bankArrays(d); !reflect.DeepEqual(got, touched) {
		t.Fatalf("Reset changed the allocated bank arrays: %v, want %v", got, touched)
	}
	for _, i := range touched {
		for b, bank := range d.vaults[i].banks {
			if bank != (Bank{}) {
				t.Fatalf("vault %d bank %d not cleared by Reset: %+v", i, b, bank)
			}
		}
	}
	rsp, _ = roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 10})
	if !freed[rsp] {
		t.Fatal("Reset dropped the response free list: the next response is a new one")
	}
	packet.PutRsp(rsp)
	d.Reset()
	d.Trim()
	if ids := bankArrays(d); ids != nil {
		t.Errorf("bank arrays after Reset+Trim: vaults %v", ids)
	}
	if d.cmcCtx != nil || d.flights != nil {
		t.Error("Trim kept the CMC context or the flight free list")
	}

	// held goes back to the trimmed device's list and is the first
	// response it builds; every later one is new or recycled after Trim,
	// never one the list held before Trim.
	packet.PutRsp(held)
	fresh := newDev(t, cfg)
	if err := fresh.CMC().Load(testFailOp{}); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []*Device{d, fresh} {
		for i, a := range []uint64{0x40, 0x40, 0x80, 0x1040} {
			if err := dev.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: a, TAG: uint16(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := true
	for c := 0; c < 20; c++ {
		d.Clock()
		fresh.Clock()
		for {
			a, okA := d.Recv(0)
			b, okB := fresh.Recv(0)
			if okA != okB {
				t.Fatalf("cycle %d: trimmed device recv %v, fresh %v", c, okA, okB)
			}
			if !okA {
				break
			}
			if first && a != held {
				t.Fatal("response released after Trim was not recycled by its device")
			}
			first = false
			if freed[a] {
				t.Fatal("Trim kept a free response: a pre-Trim response was handed out again")
			}
			wa, errA := a.Encode()
			wb, errB := b.Encode()
			if errA != nil || errB != nil || !reflect.DeepEqual(wa, wb) {
				t.Fatalf("cycle %d: responses diverge: %x vs %x (%v, %v)", c, wa, wb, errA, errB)
			}
			packet.PutRsp(a)
			packet.PutRsp(b)
		}
	}
	if first {
		t.Fatal("no response from the trimmed device")
	}
	if d.Stats() != fresh.Stats() {
		t.Errorf("stats diverge:\n trimmed %+v\n fresh   %+v", d.Stats(), fresh.Stats())
	}
	for _, i := range []int{0, 1} {
		va, _ := d.Vault(i)
		vb, _ := fresh.Vault(i)
		if !reflect.DeepEqual(va.BankOps(), vb.BankOps()) {
			t.Errorf("vault %d BankOps diverge: %v vs %v", i, va.BankOps(), vb.BankOps())
		}
	}
}
