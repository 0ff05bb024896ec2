package sim

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// driveSim pushes n writes through link 0 with host-side retry and
// collects every response; returns the device stats.
func driveSim(t *testing.T, opts ...Option) device.Stats {
	t.Helper()
	s, err := New(config.FourLink4GB(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	got := 0
	for i := 0; i < n; i++ {
		r, err := Build(hmccmd.WR16, 0, uint64(i)*64, uint16(i), 0, []uint64{uint64(i), 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SendWithRetry(0, r, 10000); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 20000 && got < n; c++ {
		s.Clock()
		for {
			rsp, ok := s.Recv(0)
			if !ok {
				break
			}
			ReleaseRsp(rsp)
			got++
		}
	}
	if got != n {
		t.Fatalf("%d/%d responses", got, n)
	}
	d, err := s.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	return d.Stats()
}

// TestWithFaultsZeroRateEquivalence: a simulator built with a disabled
// fault plan produces bit-identical stats to one built without the
// option at all — the zero-fault configuration is free.
func TestWithFaultsZeroRateEquivalence(t *testing.T) {
	base := driveSim(t)
	zero := driveSim(t, WithFaults(fault.Plan{Rate: 0, Seed: 99}))
	if base != zero {
		t.Errorf("disabled plan perturbed stats:\nbase: %+v\nzero: %+v", base, zero)
	}
}

// TestWithFaultsSeedDeterminism: the same seed reproduces the exact
// retry/error/drop counts; a different seed diverges.
func TestWithFaultsSeedDeterminism(t *testing.T) {
	a := driveSim(t, WithFaults(fault.Plan{Rate: 0.05, Seed: 21}))
	b := driveSim(t, WithFaults(fault.Plan{Rate: 0.05, Seed: 21}))
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.LinkRetries == 0 && a.DownWindows == 0 {
		t.Errorf("5%% fault rate fired nothing: %+v", a)
	}
	if c := driveSim(t, WithFaults(fault.Plan{Rate: 0.05, Seed: 22})); a == c {
		t.Error("different seeds produced identical stats")
	}
}

// TestWithFaultsBadPlan: an invalid plan fails construction.
func TestWithFaultsBadPlan(t *testing.T) {
	if _, err := New(config.FourLink4GB(), WithFaults(fault.Plan{Rate: 2})); err == nil {
		t.Error("rate 2 accepted")
	}
	if !errors.Is(func() error {
		_, err := New(config.FourLink4GB(), WithFaults(fault.Plan{Rate: -1}))
		return err
	}(), fault.ErrBadRate) {
		t.Error("want fault.ErrBadRate")
	}
}

// TestSendWithRetryAbsorbsStall: filling a link queue makes plain Send
// stall, while SendWithRetry clocks through the congestion.
func TestSendWithRetryAbsorbsStall(t *testing.T) {
	cfg := config.FourLink4GB()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate link 0's request queue without clocking.
	var r *packet.Rqst
	stalled := false
	for i := 0; i < cfg.LinkDepth+1; i++ {
		r, err = Build(hmccmd.RD16, 0, uint64(i)*64, uint16(i), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			if !errors.Is(err, device.ErrStall) {
				t.Fatal(err)
			}
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("link queue never filled")
	}
	if err := s.SendWithRetry(0, r, 1000); err != nil {
		t.Fatalf("SendWithRetry did not recover: %v", err)
	}
	if d, _ := s.Device(0); d.Stats().SendStalls == 0 {
		t.Error("stalls not counted")
	}
}

// TestSendWithRetryTimeout: a permanently blocked link yields the typed
// timeout error. Blocking is arranged by never clocking a full queue —
// SendWithRetry's own clocks drain it, so instead use a wrong-CUB error
// to check non-stall errors return immediately, and a zero budget for
// the timeout itself.
func TestSendWithRetryTimeout(t *testing.T) {
	cfg := config.FourLink4GB()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Non-stall errors pass through untouched.
	bad, err := Build(hmccmd.RD16, 7, 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SendWithRetry(0, bad, 100); err == nil || errors.Is(err, ErrRetryTimeout) {
		t.Errorf("wrong-CUB error mishandled: %v", err)
	}
	// Zero budget: one attempt, then the typed timeout.
	for i := 0; ; i++ {
		r, err := Build(hmccmd.RD16, 0, uint64(i)*64, uint16(i), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		sendErr := s.Send(0, r)
		if sendErr == nil {
			continue
		}
		if !errors.Is(sendErr, device.ErrStall) {
			t.Fatal(sendErr)
		}
		if err := s.SendWithRetry(0, r, 0); !errors.Is(err, ErrRetryTimeout) {
			t.Errorf("want ErrRetryTimeout, got %v", err)
		}
		break
	}
}
