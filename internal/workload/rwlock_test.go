package workload

import (
	"testing"

	"repro/internal/config"
)

// rwLock runs the reader-writer workload on a fresh 4Link-4GB session.
func rwLock(readers, writers, rounds int) (RWResult, error) {
	ss, err := NewSession(config.FourLink4GB())
	if err != nil {
		return RWResult{}, err
	}
	return ss.RWLock(readers, writers, rounds)
}

func TestRWLockWorkloadInvariant(t *testing.T) {
	// Session.RWLock itself verifies that every writer increment survives and
	// the lock ends free; drive several mixes through the pipeline.
	for _, tc := range []struct{ readers, writers, rounds int }{
		{8, 2, 5},
		{16, 4, 3},
		{1, 8, 4},
		{12, 0, 3}, // readers only
	} {
		res, err := rwLock(tc.readers, tc.writers, tc.rounds)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if res.Counter != uint64(tc.writers*tc.rounds) {
			t.Errorf("%+v: counter %d", tc, res.Counter)
		}
		if res.ReaderAcqs != uint64(tc.readers*tc.rounds) {
			t.Errorf("%+v: reader acquisitions %d, want %d", tc, res.ReaderAcqs, tc.readers*tc.rounds)
		}
		if res.WriterAcqs != uint64(tc.writers*tc.rounds) {
			t.Errorf("%+v: writer acquisitions %d, want %d", tc, res.WriterAcqs, tc.writers*tc.rounds)
		}
	}
}

func TestRWLockContentionCausesRetries(t *testing.T) {
	// With a writer in the mix, someone must get refused at least once
	// (readers block the writer or vice versa).
	res, err := rwLock(12, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("no acquisition retries under reader/writer contention")
	}
}

func TestRWLockDeterminism(t *testing.T) {
	a, err := rwLock(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rwLock(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestRWLockReadersProceedConcurrently(t *testing.T) {
	// With no writers, readers never exclude each other: zero retries and
	// the run finishes near the uncongested floor.
	res, err := rwLock(16, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Errorf("reader-only run saw %d retries", res.Retries)
	}
	// Each round = acquire + read + release = 3 round trips of 3 cycles;
	// two rounds, fully overlapped across readers, plus queueing slack.
	if res.Cycles > 40 {
		t.Errorf("reader-only run took %d cycles; readers are serializing", res.Cycles)
	}
}
