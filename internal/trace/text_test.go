package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// randomEvent builds an event exercising every formatted field,
// including the -1 coordinate convention and empty/non-empty details.
func randomEvent(rng *rand.Rand) Event {
	kinds := []Level{LevelBank, LevelLatency, LevelStall, LevelRqst, LevelRsp, LevelCMC}
	e := Event{
		Cycle: rng.Uint64() % 1_000_000,
		Kind:  kinds[rng.Intn(len(kinds))],
		Dev:   rng.Intn(5) - 1,
		Quad:  rng.Intn(5) - 1,
		Vault: rng.Intn(33) - 1,
		Bank:  rng.Intn(17) - 1,
		Tag:   uint16(rng.Intn(2048)),
		Addr:  rng.Uint64(),
		Value: rng.Uint64() % 10_000,
	}
	if rng.Intn(2) == 0 {
		e.Cmd = "RD64"
	} else {
		e.Cmd = "hmc_lock"
	}
	if rng.Intn(3) == 0 {
		e.Detail = "xbar head blocked: vault request queue full"
	}
	return e
}

// fmtTextLine is the reference rendering of one text trace record
// through fmt, the format the append-based TextTracer must reproduce.
func fmtTextLine(e Event) string {
	line := fmt.Sprintf("HMCSIM_TRACE : %d : %s : dev=%d quad=%d vault=%d bank=%d cmd=%s tag=%d addr=0x%x value=%d",
		e.Cycle, kindName(e.Kind), e.Dev, e.Quad, e.Vault, e.Bank, e.Cmd, e.Tag, e.Addr, e.Value)
	if e.Detail != "" {
		line += " : " + e.Detail
	}
	return line + "\n"
}

// TestBufferedMatchesText pins the buffered, append-based TextTracer
// byte-for-byte to the fmt reference rendering across randomized
// events, including every intermediate auto-flush.
func TestBufferedMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var want strings.Builder
	var gotBuf bytes.Buffer
	tr := NewText(&gotBuf, LevelAll)
	for i := 0; i < 5000; i++ {
		e := randomEvent(rng)
		want.WriteString(fmtTextLine(e))
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := gotBuf.String(); got != want.String() {
		wantLines := strings.Split(want.String(), "\n")
		gotLines := strings.Split(got, "\n")
		for i := range wantLines {
			if i >= len(gotLines) || wantLines[i] != gotLines[i] {
				t.Fatalf("line %d differs:\n fmt:  %q\n text: %q", i, wantLines[i], gotLines[i])
			}
		}
		t.Fatalf("output differs in length: %d vs %d bytes", want.Len(), len(got))
	}
}

// TestBufferedAutoFlush checks that the buffer drains to the writer on
// its own once the high-water mark is reached — no Flush call needed
// mid-run.
func TestBufferedAutoFlush(t *testing.T) {
	var out bytes.Buffer
	tr := NewText(&out, LevelAll)
	e := Event{Kind: LevelRqst, Dev: 0, Quad: 1, Vault: 2, Bank: 3, Cmd: "RD64", Addr: 0x1234}
	// Each record is ~80 bytes; thousands of emissions must exceed the
	// 64 KiB buffer and force intermediate writes.
	for i := 0; i < 5000; i++ {
		e.Cycle = uint64(i)
		tr.Emit(e)
	}
	if out.Len() == 0 {
		t.Fatal("no auto-flush after exceeding the buffer high-water mark")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 5000 {
		t.Fatalf("got %d records, want 5000", n)
	}
}

// TestBufferedLevelFilter checks disabled levels are dropped without
// buffering.
func TestBufferedLevelFilter(t *testing.T) {
	var out bytes.Buffer
	tr := NewText(&out, LevelRqst)
	tr.Emit(Event{Kind: LevelRsp, Cmd: "RD16"})
	tr.Emit(Event{Kind: LevelRqst, Cmd: "RD16"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 1 {
		t.Fatalf("got %d records, want 1 (RSP filtered)", n)
	}
}

// errWriter fails every write.
type errWriter struct{}

var errSink = errors.New("sink failed")

func (errWriter) Write(p []byte) (int, error) { return 0, errSink }

// TestBufferedFlushError surfaces the first sink error from Flush.
func TestBufferedFlushError(t *testing.T) {
	tr := NewText(errWriter{}, LevelAll)
	tr.Emit(Event{Kind: LevelRqst})
	if err := tr.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("Flush: %v, want sink error", err)
	}
}

// TestBufferedConcurrentEmit checks Emit tolerates concurrent callers
// (the Tracer contract) and loses no records.
func TestBufferedConcurrentEmit(t *testing.T) {
	var out bytes.Buffer
	tr := NewText(&out, LevelAll)
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Event{Kind: LevelRqst, Cycle: uint64(g*per + i), Cmd: "RD16"})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != goroutines*per {
		t.Fatalf("got %d records, want %d", n, goroutines*per)
	}
}

// TestRecorderChunking drives the recorder well past one chunk and
// checks order, filtering and reset.
func TestRecorderChunking(t *testing.T) {
	r := NewRecorder(LevelRqst | LevelRsp)
	const total = 3*recorderChunk + 17
	for i := 0; i < total; i++ {
		kind := LevelRqst
		if i%3 == 0 {
			kind = LevelRsp
		}
		r.Emit(Event{Kind: kind, Cycle: uint64(i)})
	}
	r.Emit(Event{Kind: LevelBank}) // filtered
	if r.Len() != total {
		t.Fatalf("Len = %d, want %d", r.Len(), total)
	}
	evs := r.Events()
	if len(evs) != total {
		t.Fatalf("Events len = %d, want %d", len(evs), total)
	}
	for i, e := range evs {
		if e.Cycle != uint64(i) {
			t.Fatalf("event %d out of order: cycle %d", i, e.Cycle)
		}
		if e.KindName == "" {
			t.Fatalf("event %d missing KindName", i)
		}
	}
	rsps := r.OfKind(LevelRsp)
	want := (total + 2) / 3
	if len(rsps) != want {
		t.Fatalf("OfKind(RSP) = %d, want %d", len(rsps), want)
	}
	r.Reset()
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatal("Reset left events behind")
	}
	r.Emit(Event{Kind: LevelRqst, Cycle: 42})
	if evs := r.Events(); len(evs) != 1 || evs[0].Cycle != 42 {
		t.Fatalf("post-reset recording broken: %+v", evs)
	}
}
