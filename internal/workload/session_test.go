package workload

import (
	"errors"
	"fmt"
	"regexp"
	"testing"

	"repro/internal/config"
)

// TestDriversRejectBadRuns: every Session driver refuses a run with no
// agents, or with a negative agent count, by returning an error rather
// than panicking or reporting NaN averages; and the lock drivers turn a
// lock block beyond device capacity into an agent fault carrying the
// device's ERRSTAT 0x1 instead of hanging or panicking.
func TestDriversRejectBadRuns(t *testing.T) {
	cfg := config.FourLink4GB()
	beyond := cfg.CapacityBytes() + 0x40
	type row struct {
		name  string
		run   func(ss *Session) error
		fault bool // must wrap ErrAgentFault with ERRSTAT 0x1
	}
	drivers := []struct {
		name string
		run  func(ss *Session, n int) error
	}{
		{"mutex", func(ss *Session, n int) error { _, err := ss.Mutex(n, 0x40); return err }},
		{"ticket", func(ss *Session, n int) error { _, err := ss.TicketMutex(n, 0x40); return err }},
		{"rwlock", func(ss *Session, n int) error { _, err := ss.RWLock(n, n, 1); return err }},
		{"gups", func(ss *Session, n int) error { _, err := ss.GUPS(GUPSAtomic, n, 64, 64); return err }},
		{"stream", func(ss *Session, n int) error { _, err := ss.Stream(n, 16, 1.25); return err }},
		{"bfs", func(ss *Session, n int) error { _, err := ss.BFS(BFSCMC, n, 64, 4, 1); return err }},
		{"replay", func(ss *Session, n int) error {
			_, err := ss.Replay(n, GenerateRandomTrace(0, 1<<20, 16, 1))
			return err
		}},
		{"bandwidth", func(ss *Session, n int) error { _, err := ss.BandwidthProbe(n, 4, 8); return err }},
	}
	var rows []row
	for _, d := range drivers {
		for _, n := range []int{0, -1} {
			rows = append(rows, row{
				name: fmt.Sprintf("%s/threads=%d", d.name, n),
				run:  func(ss *Session) error { return d.run(ss, n) },
			})
		}
	}
	// One negative role among positive ones still sums to a positive
	// agent count.
	rows = append(rows,
		row{name: "rwlock/readers=-1", run: func(ss *Session) error { _, err := ss.RWLock(-1, 2, 1); return err }},
		row{name: "rwlock/writers=-1", run: func(ss *Session) error { _, err := ss.RWLock(2, -1, 1); return err }},
		row{name: "mutex/beyond-capacity", fault: true, run: func(ss *Session) error {
			_, err := ss.Mutex(2, beyond)
			return err
		}},
		row{name: "ticket/beyond-capacity", fault: true, run: func(ss *Session) error {
			_, err := ss.TicketMutex(2, beyond)
			return err
		}},
		// RWLock keeps its lock at a fixed block, so this row drives an
		// RWAgent through the session engine directly.
		row{name: "rwlock/beyond-capacity", fault: true, run: func(ss *Session) error {
			if _, err := ss.begin(1, "hmc_wrlock", "hmc_wrunlock"); err != nil {
				return err
			}
			a := &RWAgent{Role: rwWriter, TID: 1, LockAddr: beyond, DataAddr: 0x80, Rounds: 1}
			_, err := ss.run([]Agent{a}, 10_000)
			return err
		}},
	)
	errstat1 := regexp.MustCompile(`ERRSTAT( 0x|:)1\b`)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ss, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = r.run(ss)
			switch {
			case err == nil:
				t.Fatal("run accepted")
			case r.fault && (!errors.Is(err, ErrAgentFault) || !errstat1.MatchString(err.Error())):
				t.Fatalf("got %v, want an ErrAgentFault carrying ERRSTAT 0x1", err)
			}
		})
	}
}
