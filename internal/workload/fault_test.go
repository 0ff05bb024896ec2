package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// faultSession builds a session for a 1%-fault run: the seeded plan, a
// metrics registry, and a sampler writing JSONL into buf.
func faultSession(t *testing.T, cfg config.Config, buf *bytes.Buffer) *Session {
	t.Helper()
	reg := metrics.NewRegistry()
	ss, err := NewSession(cfg,
		sim.WithFaults(fault.Plan{Rate: 0.01, Seed: 1234}),
		sim.WithMetrics(reg),
		sim.WithSampler(metrics.NewSampler(reg, buf, 256)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// faultStats sums the reliability counters across the simulator's
// devices.
func faultStats(s *sim.Simulator) device.Stats {
	var total device.Stats
	for _, d := range s.Devices() {
		st := d.Stats()
		total.LinkRetries += st.LinkRetries
		total.CRCErrors += st.CRCErrors
		total.Drops += st.Drops
		total.DownWindows += st.DownWindows
	}
	return total
}

// TestWorkloadsCompleteUnderFaults: every kernel of the evaluation —
// mutex, ticket, rwlock, GUPS, STREAM, BFS — finishes with correct
// functional results at a 1% injected fault rate (each runner verifies
// its own invariants: lock left free, memory contents replayed, triad
// checked, all vertices visited exactly once), and the retries are
// visible both in the device counters and in the sampler's output.
func TestWorkloadsCompleteUnderFaults(t *testing.T) {
	cfg := config.FourLink4GB()
	var totalFaults uint64
	kernels := []struct {
		name string
		run  func(ss *Session) error
	}{
		{"mutex", func(ss *Session) error {
			_, err := ss.Mutex(12, 0x4040)
			return err
		}},
		{"ticket", func(ss *Session) error {
			_, err := ss.TicketMutex(12, 0x8040)
			return err
		}},
		{"rwlock", func(ss *Session) error {
			_, err := ss.RWLock(6, 2, 4)
			return err
		}},
		{"gups", func(ss *Session) error {
			_, err := ss.GUPS(GUPSAtomic, 8, 1024, 600)
			return err
		}},
		{"stream", func(ss *Session) error {
			_, err := ss.Stream(8, 64, 1.25)
			return err
		}},
		{"bfs", func(ss *Session) error {
			_, err := ss.BFS(BFSCMC, 8, 400, 4, 42)
			return err
		}},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			var buf bytes.Buffer
			ss := faultSession(t, cfg, &buf)
			if err := k.run(ss); err != nil {
				t.Fatalf("%s under 1%% faults: %v", k.name, err)
			}
			s := ss.Sim()
			st := faultStats(s)
			// Force the end-of-run sample the drivers normally take, so
			// short runs still land in the series.
			s.Sampler().Sample(s.Cycle())
			if err := s.Sampler().Flush(); err != nil {
				t.Fatal(err)
			}
			faults := st.CRCErrors + st.Drops + st.DownWindows
			totalFaults += faults
			if faults > 0 && st.LinkRetries == 0 && st.DownWindows == 0 {
				t.Errorf("faults fired (%d) but no retries recorded", faults)
			}
			out := buf.String()
			if !strings.Contains(out, "hmc_device_link_retries_total") {
				t.Error("sampler output missing the retry counter")
			}
			if !strings.Contains(out, "hmc_device_crc_errors_total") {
				t.Error("sampler output missing the CRC error counter")
			}
		})
	}
	if totalFaults == 0 {
		t.Error("1% fault rate fired nothing across all six kernels")
	}
}

// TestMutexResultsMatchUnderFaults: the mutex workload's functional
// outcome — every thread acquires and releases exactly once, the lock
// ends free — is unchanged by faults; only timing moves.
func TestMutexResultsMatchUnderFaults(t *testing.T) {
	cfg := config.FourLink4GB()
	clean, err := RunMutex(cfg, 8, 0x4040)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunMutex(cfg, 8, 0x4040,
		sim.WithFaults(fault.Plan{Rate: 0.01, Seed: 7}))
	if err != nil {
		t.Fatalf("mutex under faults: %v", err)
	}
	if faulted.Threads != clean.Threads {
		t.Errorf("thread counts differ: %d vs %d", faulted.Threads, clean.Threads)
	}
	// RunMutex already verified the lock ended free in both runs; the
	// faulted run may pay more cycles but must never finish in fewer
	// than the uncongested minimum.
	if faulted.Min < clean.Min {
		t.Errorf("faulted min %d below clean min %d", faulted.Min, clean.Min)
	}
}

// TestMutexSweepAcceptsOptions: the sweep runners plumb simulator
// options through to every point.
func TestMutexSweepAcceptsOptions(t *testing.T) {
	res, err := MutexSweep(config.TwoGBDev(), 1, 3, 0x4040, 1, nil,
		sim.WithFaults(fault.Plan{Rate: 0.01, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	par, err := MutexSweep(config.TwoGBDev(), 1, 3, 0x4040, 2, nil,
		sim.WithFaults(fault.Plan{Rate: 0.01, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Runs {
		if res.Runs[i] != par.Runs[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, res.Runs[i], par.Runs[i])
		}
	}
}
