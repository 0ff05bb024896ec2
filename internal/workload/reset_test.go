package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The reset bit-identity suite pins the contract behind reusable
// sessions: a simulator that has run a workload and been Reset must be
// indistinguishable from a freshly constructed one — same driver
// results, same device statistics, same cycle counts, same trace bytes
// — across every driver, both paper presets, and with fault injection
// active (Reset rewinds the injector streams).

// deviceSnap is the observable per-device state compared between fresh
// and reused runs.
type deviceSnap struct {
	Cycle uint64
	Stats device.Stats
}

func snapshot(s *sim.Simulator) []deviceSnap {
	devs := s.Devices()
	out := make([]deviceSnap, len(devs))
	for i, d := range devs {
		out[i] = deviceSnap{Cycle: d.Cycle(), Stats: d.Stats()}
	}
	return out
}

// resetWorkload is one driver exercised by the suite: warmup runs first
// on the reused session (different arguments, so the session really
// carries state into Reset), then measured runs on both sessions.
type resetWorkload struct {
	name     string
	warmup   func(ss *Session) error
	measured func(ss *Session) (any, error)
}

var resetWorkloads = []resetWorkload{
	{
		name:   "mutex",
		warmup: func(ss *Session) error { _, err := ss.Mutex(3, 0x40); return err },
		measured: func(ss *Session) (any, error) {
			return ss.Mutex(6, 0x40)
		},
	},
	{
		name:   "ticket",
		warmup: func(ss *Session) error { _, err := ss.TicketMutex(2, 0x80); return err },
		measured: func(ss *Session) (any, error) {
			return ss.TicketMutex(4, 0x80)
		},
	},
	{
		name:   "rwlock",
		warmup: func(ss *Session) error { _, err := ss.RWLock(1, 1, 1); return err },
		measured: func(ss *Session) (any, error) {
			return ss.RWLock(3, 2, 2)
		},
	},
	{
		name:   "gups",
		warmup: func(ss *Session) error { _, err := ss.GUPS(GUPSAtomic, 2, 32, 16); return err },
		measured: func(ss *Session) (any, error) {
			return ss.GUPS(GUPSAtomic, 4, 64, 64)
		},
	},
	{
		name:   "stream",
		warmup: func(ss *Session) error { _, err := ss.Stream(2, 8, 1.25); return err },
		measured: func(ss *Session) (any, error) {
			return ss.Stream(4, 32, 1.25)
		},
	},
	{
		name:   "bfs",
		warmup: func(ss *Session) error { _, err := ss.BFS(BFSCMC, 2, 16, 2, 7); return err },
		measured: func(ss *Session) (any, error) {
			return ss.BFS(BFSCMC, 4, 64, 3, 7)
		},
	},
}

func resetPresets() map[string]config.Config {
	return map[string]config.Config{
		"FourLink4GB":  config.FourLink4GB(),
		"EightLink8GB": config.EightLink8GB(),
	}
}

func resetFaultOpts() map[string][]sim.Option {
	return map[string][]sim.Option{
		"fault-free":  nil,
		"faults-1pct": {sim.WithFaults(fault.Plan{Rate: 0.01, Seed: 1})},
	}
}

// TestResetBitIdentity compares every driver's measured run between a
// fresh session and a session reused after a different warm-up run.
func TestResetBitIdentity(t *testing.T) {
	for cfgName, cfg := range resetPresets() {
		for faultName, opts := range resetFaultOpts() {
			for _, w := range resetWorkloads {
				w := w
				t.Run(fmt.Sprintf("%s/%s/%s", w.name, cfgName, faultName), func(t *testing.T) {
					fresh, err := NewSession(cfg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					wantRes, err := w.measured(fresh)
					if err != nil {
						t.Fatalf("fresh run: %v", err)
					}
					wantSnap := snapshot(fresh.Sim())

					reused, err := NewSession(cfg, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if err := w.warmup(reused); err != nil {
						t.Fatalf("warm-up run: %v", err)
					}
					gotRes, err := w.measured(reused)
					if err != nil {
						t.Fatalf("reused run: %v", err)
					}
					gotSnap := snapshot(reused.Sim())

					if !reflect.DeepEqual(wantRes, gotRes) {
						t.Errorf("results diverge:\nfresh:  %+v\nreused: %+v", wantRes, gotRes)
					}
					if !reflect.DeepEqual(wantSnap, gotSnap) {
						t.Errorf("device state diverges:\nfresh:  %+v\nreused: %+v", wantSnap, gotSnap)
					}
				})
			}
		}
	}
}

// TestResetTraceIdentity pins trace byte-identity: the trace emitted by
// a measured run on a Reset session equals the trace of the same run on
// a fresh simulator, byte for byte.
func TestResetTraceIdentity(t *testing.T) {
	cfg := config.FourLink4GB()

	var freshBuf bytes.Buffer
	freshTr := trace.NewText(&freshBuf, trace.LevelAll)
	fresh, err := NewSession(cfg, sim.WithTracer(freshTr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Mutex(4, 0x40); err != nil {
		t.Fatal(err)
	}
	if err := freshTr.Flush(); err != nil {
		t.Fatal(err)
	}

	var reusedBuf bytes.Buffer
	reusedTr := trace.NewText(&reusedBuf, trace.LevelAll)
	reused, err := NewSession(cfg, sim.WithTracer(reusedTr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Mutex(2, 0x40); err != nil {
		t.Fatal(err)
	}
	if err := reusedTr.Flush(); err != nil {
		t.Fatal(err)
	}
	warmupLen := reusedBuf.Len()
	if _, err := reused.Mutex(4, 0x40); err != nil {
		t.Fatal(err)
	}
	if err := reusedTr.Flush(); err != nil {
		t.Fatal(err)
	}

	tail := reusedBuf.Bytes()[warmupLen:]
	if !bytes.Equal(freshBuf.Bytes(), tail) {
		t.Errorf("trace bytes diverge: fresh %d bytes, reused tail %d bytes",
			freshBuf.Len(), len(tail))
	}
}

// TestResetConsecutiveProperty is the testing/quick form of the
// invariant: for random small workload shapes, N consecutive runs on
// one session match N fresh constructions run for run.
func TestResetConsecutiveProperty(t *testing.T) {
	cfg := config.FourLink4GB()
	const runs = 3
	prop := func(seed uint8, faulty bool) bool {
		// Derive a small per-run thread count in [1, 6] from the seed so
		// consecutive runs differ in shape.
		threads := func(i int) int { return 1 + int(seed+uint8(i))%6 }
		var opts []sim.Option
		if faulty {
			opts = append(opts, sim.WithFaults(fault.Plan{Rate: 0.01, Seed: uint64(seed)}))
		}
		ss, err := NewSession(cfg, opts...)
		if err != nil {
			return false
		}
		for i := 0; i < runs; i++ {
			got, err := ss.Mutex(threads(i), 0x40)
			if err != nil {
				return false
			}
			gotSnap := snapshot(ss.Sim())
			want, err := RunMutex(cfg, threads(i), 0x40, opts...)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
			// The fresh comparator inside RunMutex is gone before we can
			// snapshot it; rebuild one to compare device state too.
			ref, err := NewSession(cfg, opts...)
			if err != nil {
				return false
			}
			if _, err := ref.Mutex(threads(i), 0x40); err != nil {
				return false
			}
			refSnap := snapshot(ref.Sim())
			if !reflect.DeepEqual(gotSnap, refSnap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
