package workload

import (
	"testing"

	"repro/internal/config"
)

// ticketMutex runs the ticket-lock workload with the given thread count
// on a fresh 4Link-4GB session.
func ticketMutex(t *testing.T, threads int) TicketRun {
	t.Helper()
	ss, err := NewSession(config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	run, err := ss.TicketMutex(threads, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTicketMutexCompletes(t *testing.T) {
	run := ticketMutex(t, 16)
	if run.Threads != 16 {
		t.Errorf("threads = %d", run.Threads)
	}
	if run.Min < 6 {
		t.Errorf("min = %d below the two-round-trip floor", run.Min)
	}
	if run.Max <= run.Min {
		t.Errorf("max %d not above min %d", run.Max, run.Min)
	}
}

func TestTicketMutexIsFair(t *testing.T) {
	// FIFO handoff is the ticket lock's defining property: acquisition
	// order must match ticket order exactly.
	for _, n := range []int{8, 32, 64} {
		run := ticketMutex(t, n)
		if run.Inversions != 0 {
			t.Errorf("threads=%d: %d fairness inversions, want 0", n, run.Inversions)
		}
	}
}

func TestTicketMutexDeterminism(t *testing.T) {
	a := ticketMutex(t, 20)
	b := ticketMutex(t, 20)
	if a != b {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestTicketVsSpinMutex(t *testing.T) {
	// The comparison the extension exists for: both serialize the
	// critical section (similar total cycles), but the ticket lock polls
	// with plain reads instead of trylock spam and is perfectly fair.
	spin, err := RunMutex(config.FourLink4GB(), 32, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	ticket := ticketMutex(t, 32)
	if ticket.Inversions != 0 {
		t.Errorf("ticket inversions = %d", ticket.Inversions)
	}
	// Both scale linearly; ticket should be within 3x of spin.
	if ticket.Max > spin.Max*3 {
		t.Errorf("ticket max %d vs spin max %d: ticket unexpectedly slow", ticket.Max, spin.Max)
	}
}

func TestInversionsHelper(t *testing.T) {
	if got := Inversions([]uint64{0, 1, 2}, []uint64{10, 20, 30}); got != 0 {
		t.Errorf("sorted: %d", got)
	}
	if got := Inversions([]uint64{0, 1, 2}, []uint64{30, 20, 10}); got != 3 {
		t.Errorf("reversed: %d", got)
	}
	if got := Inversions([]uint64{0, 1}, []uint64{20, 10}); got != 1 {
		t.Errorf("single swap: %d", got)
	}
}
