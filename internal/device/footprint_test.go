package device

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// bankArrays lists the vaults holding a bank array.
func bankArrays(d *Device) []int {
	var ids []int
	for i := range d.vaults {
		if d.vaults[i].banks != nil {
			ids = append(ids, i)
		}
	}
	return ids
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
	if d.cmcCtx != nil || d.flightPool != nil || d.rqstPool != nil {
		t.Error("Trim kept the CMC context or the flight/request free lists")
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
