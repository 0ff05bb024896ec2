package hmcsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/queue"
)

// The fast paths introduced by the hot-path overhaul — sharded memory,
// flight pooling and idle-vault skipping — must be invisible: same
// config and workload ⇒ identical responses, cycle counts, statistics
// and traces. These tests pin that guarantee by running the mutex
// workload in two modes:
//
//   - walk:  ForceWalk=true, the seed's walk-every-component behaviour
//   - skip:  the default idle-skipping clock
//
// and comparing every observable, traces byte for byte.

// eqCapture is everything observable from one mutex run.
type eqCapture struct {
	run    MutexRun
	stats  device.Stats
	vaultR []queue.Stats
	vaultS []queue.Stats
	linkR  []queue.Stats
	linkS  []queue.Stats
	xbarR  []queue.Stats
	xbarS  []queue.Stats
	trace  []byte
}

// runMutexMode executes one traced mutex run. forceWalk restores the
// walk-everything clock; extra options (e.g. WithSpans) apply on top.
func runMutexMode(t *testing.T, cfg Config, threads int, forceWalk bool, opts ...Option) eqCapture {
	t.Helper()
	var buf bytes.Buffer
	levels := TraceRqst | TraceRsp | TraceCMC | TraceStall | TraceLatency
	tracer := NewJSONLTracer(&buf, levels)
	ss, err := NewSession(cfg, append(opts, WithTracer(tracer))...)
	if err != nil {
		t.Fatal(err)
	}
	dev := ss.Sim().Devices()[0]
	dev.ForceWalk = forceWalk
	run, err := ss.Mutex(threads, 0x40)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	cap := eqCapture{run: run, stats: dev.Stats(), trace: buf.Bytes()}
	for i := 0; i < cfg.Vaults; i++ {
		v, err := dev.Vault(i)
		if err != nil {
			t.Fatal(err)
		}
		cap.vaultR = append(cap.vaultR, v.RqstStats())
		cap.vaultS = append(cap.vaultS, v.RspStats())
	}
	for i := 0; i < cfg.Links; i++ {
		l, err := dev.Link(i)
		if err != nil {
			t.Fatal(err)
		}
		cap.linkR = append(cap.linkR, l.RqstStats())
		cap.linkS = append(cap.linkS, l.RspStats())
		cap.xbarR = append(cap.xbarR, dev.Xbar().RqstStats(i))
		cap.xbarS = append(cap.xbarS, dev.Xbar().RspStats(i))
	}
	return cap
}

// compareCaptures checks every observable of b against the reference a.
func compareCaptures(t *testing.T, label string, a, b eqCapture) {
	t.Helper()
	if a.run != b.run {
		t.Errorf("%s: run results diverge:\n  ref %+v\n  got %+v", label, a.run, b.run)
	}
	if a.stats != b.stats {
		t.Errorf("%s: device stats diverge:\n  ref %+v\n  got %+v", label, a.stats, b.stats)
	}
	for _, q := range []struct {
		name     string
		ref, got []queue.Stats
	}{
		{"vault rqst", a.vaultR, b.vaultR},
		{"vault rsp", a.vaultS, b.vaultS},
		{"link rqst", a.linkR, b.linkR},
		{"link rsp", a.linkS, b.linkS},
		{"xbar rqst", a.xbarR, b.xbarR},
		{"xbar rsp", a.xbarS, b.xbarS},
	} {
		if !reflect.DeepEqual(q.ref, q.got) {
			t.Errorf("%s: %s queue stats diverge", label, q.name)
		}
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("%s: JSONL traces diverge byte-for-byte (%d vs %d bytes)",
			label, len(a.trace), len(b.trace))
	}
}

// TestClockModeEquivalence is the acceptance test for the hot-path
// overhaul: at 2, 50 and 100 threads on both paper configurations, the
// idle-skipping clock must reproduce the walk-everything results
// exactly.
func TestClockModeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full equivalence matrix is not short")
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"4Link-4GB", FourLink4GB()},
		{"8Link-8GB", EightLink8GB()},
	}
	for _, c := range configs {
		for _, threads := range []int{2, 50, 100} {
			label := fmt.Sprintf("%s/%d-threads", c.name, threads)
			walk := runMutexMode(t, c.cfg, threads, true)
			skip := runMutexMode(t, c.cfg, threads, false)
			compareCaptures(t, label+"/idle-skip", walk, skip)
		}
	}
}
