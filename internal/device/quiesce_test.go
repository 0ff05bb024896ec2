package device

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// TestNextEventCycleBasics pins the bound's three regimes on a fresh
// device: NeverCycle when fully quiescent, cycle+1 the moment anything
// is queued, and cycle+1 unconditionally under ForceWalk.
func TestNextEventCycleBasics(t *testing.T) {
	cfg := config.TwoGBDev()
	d, err := New(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b := d.NextEventCycle(); b != NeverCycle {
		t.Fatalf("fresh device bound = %d, want NeverCycle", b)
	}
	d.ForceWalk = true
	if b := d.NextEventCycle(); b != d.cycle+1 {
		t.Fatalf("ForceWalk bound = %d, want cycle+1 = %d", b, d.cycle+1)
	}
	d.ForceWalk = false
	r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: vaultAddr(cfg, 0, 0), TAG: 1}
	if err := d.Send(0, r); err != nil {
		t.Fatal(err)
	}
	if b := d.NextEventCycle(); b != d.cycle+1 {
		t.Fatalf("queued-head bound = %d, want cycle+1 = %d", b, d.cycle+1)
	}
	// Drive the round trip home; once the response is drained the device
	// is quiescent again — bank busy windows and retired retry slots are
	// lazy and must not pin the bound.
	for c := 0; c < 32; c++ {
		d.Clock()
		if rsp, ok := d.Recv(0); ok {
			packet.PutRsp(rsp)
			break
		}
	}
	if d.HostRspQueued() {
		t.Fatal("response not drained")
	}
	if b := d.NextEventCycle(); b != NeverCycle {
		t.Fatalf("post-drain bound = %d, want NeverCycle", b)
	}
}

// skipAdvance advances the skip-side device of the lockstep pair one
// decision: a maximal SkipCycles jump when the bound allows (capped at
// limit), otherwise one Clock. It also asserts the bound's basic sanity
// (always beyond the current cycle).
func skipAdvance(t *testing.T, d *Device, limit uint64) {
	t.Helper()
	b := d.NextEventCycle()
	if b != NeverCycle && b <= d.cycle {
		t.Fatalf("NextEventCycle = %d not beyond cycle %d", b, d.cycle)
	}
	if b == NeverCycle {
		if span := limit - d.cycle; span > 0 {
			d.SkipCycles(span)
			return
		}
	} else if b > d.cycle+1 {
		span := b - 1 - d.cycle
		if max := limit - d.cycle; span > max {
			span = max
		}
		if span > 0 {
			d.SkipCycles(span)
			return
		}
	}
	d.Clock()
}

// runLockstep drives one device through a seeded schedule of request
// bursts separated by idle gaps and renders everything observable — the
// cycle, link and tag of every response and send stall, plus the final
// report — into one comparable string. With skip=false every cycle is
// clocked (the reference walk); with skip=true the driver jumps every
// span NextEventCycle declares idle. Identical strings prove the bound
// is a true lower bound: any premature jump would lose a stall count, a
// window expiry or an occupancy sample and diverge the report.
func runLockstep(t *testing.T, cfg config.Config, plan fault.Plan, seed uint64, skip bool) string {
	t.Helper()
	d, err := New(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Enabled() {
		if err := d.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	rng := splitmix64(seed)
	var log strings.Builder
	payload := []uint64{3, 5}
	for burst := 0; burst < 16; burst++ {
		n := 1 + int(rng.next()%6)
		expect := 0
		for i := 0; i < n; i++ {
			v := int(rng.next() % uint64(cfg.Vaults))
			r := packet.Rqst{ADRS: vaultAddr(cfg, v, int(rng.next()%8)), TAG: uint16(i)}
			switch rng.next() % 3 {
			case 0:
				r.Cmd = hmccmd.RD16
			case 1:
				r.Cmd, r.Payload = hmccmd.WR16, payload
			default:
				r.Cmd, r.Payload = hmccmd.ADD16, payload
			}
			if err := d.Send(i%cfg.Links, &r); err != nil {
				fmt.Fprintf(&log, "stall c=%d b=%d i=%d\n", d.cycle, burst, i)
				continue
			}
			if !r.Cmd.Posted() {
				expect++
			}
		}
		// Drain the burst: responses must surface at identical cycles on
		// both sides. The budget is generous enough for pathological
		// fault plans (every traversal dropped retries after the full
		// timeout, repeatedly).
		got := 0
		limit := d.cycle + 16384
		for got < expect && d.cycle < limit {
			if skip {
				skipAdvance(t, d, limit)
			} else {
				d.Clock()
			}
			for l := 0; l < cfg.Links; l++ {
				for {
					rsp, ok := d.Recv(l)
					if !ok {
						break
					}
					fmt.Fprintf(&log, "rsp c=%d l=%d tag=%d cmd=%v\n", d.cycle, l, rsp.TAG, rsp.Cmd)
					packet.PutRsp(rsp)
					got++
				}
			}
		}
		if got != expect {
			t.Fatalf("burst %d (skip=%v): drained %d of %d responses", burst, skip, got, expect)
		}
		// Idle gap: the skip side must fast-forward it in O(1) jumps.
		gap := rng.next() % 700
		limit = d.cycle + gap
		for d.cycle < limit {
			if skip {
				skipAdvance(t, d, limit)
			} else {
				d.Clock()
			}
		}
	}
	rep := d.BuildReport()
	fmt.Fprintf(&log, "cycle=%d\n%s\nimbalance=%.6f ops/cycle=%.6f stats=%+v",
		d.cycle, rep.String(), rep.LoadImbalance(), rep.OpsPerCycle(), d.Stats())
	return log.String()
}

// TestNextEventLowerBoundProperty is the quiescence bound's property
// test: across seeds and fault environments — including heavy Drop
// traffic (retransmit-timeout parks) and heavy Down traffic (link-wide
// outage windows) — a driver that jumps every span NextEventCycle
// declares idle observes byte-identical responses, stalls and final
// reports to one that clocks every cycle.
func TestNextEventLowerBoundProperty(t *testing.T) {
	cfg := config.TwoGBDev()
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"no-faults", fault.Plan{}},
		{"all-1pct", fault.Plan{Rate: 0.01, Seed: 3}},
		{"drop-heavy", fault.Plan{Rate: 0.3, Seed: 7, Kinds: fault.Drop}},
		{"down-heavy", fault.Plan{Rate: 0.3, Seed: 9, Kinds: fault.Down, DownCycles: 50}},
		{"mixed-10pct", fault.Plan{Rate: 0.1, Seed: 11, DownCycles: 40, DropTimeoutCycles: 30}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 0xABCD} {
				walk := runLockstep(t, cfg, p.plan, seed, false)
				jump := runLockstep(t, cfg, p.plan, seed, true)
				if walk != jump {
					t.Errorf("seed %#x: walked and jumped runs diverge:\n--- walk\n%s\n--- jump\n%s", seed, walk, jump)
				}
			}
		})
	}
}

// clockUntilParked walks the device until the given window value
// (downUntil or retryUntil) parks the head strictly beyond the next
// cycle, or fails after a budget.
func clockUntilParked(t *testing.T, d *Device, window func() uint64) {
	t.Helper()
	for c := 0; c < 256; c++ {
		if window() > d.cycle+1 && !d.links[0].rqst.Empty() {
			return
		}
		d.Clock()
	}
	t.Fatal("head never parked behind the fault window")
}

// TestSkipNeverJumpsDownWindow is the ClockN-edge regression for
// link-down outages: with a head parked behind a Plan.DownCycles
// window, NextEventCycle must return exactly the window expiry — a
// larger bound would let a skip jump the boundary and miss the wake
// cycle's traversal attempt.
func TestSkipNeverJumpsDownWindow(t *testing.T) {
	cfg := config.TwoGBDev()
	d, err := New(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const downCycles = 64
	if err := d.SetFaultPlan(fault.Plan{Rate: 1, Seed: 5, Kinds: fault.Down, DownCycles: downCycles}); err != nil {
		t.Fatal(err)
	}
	r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: vaultAddr(cfg, 0, 0), TAG: 1}
	if err := d.Send(0, r); err != nil {
		t.Fatal(err)
	}
	l := &d.links[0]
	clockUntilParked(t, d, func() uint64 { return l.downUntil })
	wake := l.downUntil
	if until := l.rqstDir.retryUntil; until > wake {
		wake = until
	}
	if b := d.NextEventCycle(); b != wake {
		t.Fatalf("parked-head bound = %d, want window expiry %d (cycle %d)", b, wake, d.cycle)
	}
	// Jump to the eve of the window and step across it: the traversal
	// attempt must happen exactly at the wake cycle (with Rate 1 it
	// faults again, arming a fresh window — observable proof the
	// boundary was not skipped).
	d.SkipCycles(wake - 1 - d.cycle)
	if d.cycle != wake-1 {
		t.Fatalf("skip landed on %d, want %d", d.cycle, wake-1)
	}
	if b := d.NextEventCycle(); b != wake {
		t.Fatalf("bound after skip = %d, want %d", b, wake)
	}
	d.Clock()
	if l.downUntil <= wake {
		t.Fatalf("wake-cycle traversal did not arm a new window: downUntil=%d, wake=%d", l.downUntil, wake)
	}
}

// TestSkipNeverJumpsDropTimeout is the matching regression for dropped
// packets: a head parked on its retransmit timeout must bound the skip
// at exactly the timeout expiry, and the retransmission must run on the
// wake cycle.
func TestSkipNeverJumpsDropTimeout(t *testing.T) {
	cfg := config.TwoGBDev()
	d, err := New(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 48
	if err := d.SetFaultPlan(fault.Plan{Rate: 1, Seed: 5, Kinds: fault.Drop, DropTimeoutCycles: timeout}); err != nil {
		t.Fatal(err)
	}
	r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: vaultAddr(cfg, 0, 0), TAG: 1}
	if err := d.Send(0, r); err != nil {
		t.Fatal(err)
	}
	l := &d.links[0]
	dir := &l.rqstDir
	clockUntilParked(t, d, func() uint64 { return dir.retryUntil })
	wake := dir.retryUntil
	if l.downUntil > wake {
		wake = l.downUntil
	}
	if b := d.NextEventCycle(); b != wake {
		t.Fatalf("parked-head bound = %d, want timeout expiry %d (cycle %d)", b, wake, d.cycle)
	}
	drops := d.Stats().Drops
	d.SkipCycles(wake - 1 - d.cycle)
	d.Clock()
	// With Rate 1 the wake-cycle retransmission is dropped again: the
	// drop counter and a fresh timeout are observable proof the attempt
	// ran exactly at the expiry rather than being skipped past.
	if got := d.Stats().Drops; got != drops+1 {
		t.Fatalf("wake-cycle retransmission did not run: drops %d -> %d", drops, got)
	}
	if dir.retryUntil <= wake {
		t.Fatalf("retransmission did not arm a new timeout: retryUntil=%d, wake=%d", dir.retryUntil, wake)
	}
}

// vaultAddr returns an address routed to vault v (row k) under the test
// configuration's address map: consecutive max-size blocks interleave
// across vaults.
func vaultAddr(cfg config.Config, v, k int) uint64 {
	block := uint64(cfg.MaxBlockSize)
	return (uint64(k)*uint64(cfg.Vaults) + uint64(v)) * block
}

// splitmix64 is the tests' deterministic traffic stream.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
