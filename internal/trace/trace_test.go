package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestLevelString(t *testing.T) {
	if got := (LevelBank | LevelCMC).String(); got != "BANK+CMC" {
		t.Errorf("String() = %q", got)
	}
	if got := Level(0).String(); got != "NONE" {
		t.Errorf("zero level String() = %q", got)
	}
	if !strings.Contains(LevelAll.String(), "LATENCY") {
		t.Errorf("LevelAll missing LATENCY: %q", LevelAll.String())
	}
}

func TestParseLevel(t *testing.T) {
	l, err := ParseLevel("bank+cmc")
	if err != nil || l != LevelBank|LevelCMC {
		t.Errorf("ParseLevel(bank+cmc) = %v, %v", l, err)
	}
	l, err = ParseLevel("ALL")
	if err != nil || l != LevelAll {
		t.Errorf("ParseLevel(ALL) = %v, %v", l, err)
	}
	l, err = ParseLevel("none")
	if err != nil || l != 0 {
		t.Errorf("ParseLevel(none) = %v, %v", l, err)
	}
	for _, name := range []string{"bogus", "queue", "power", "rsp+queue"} {
		if _, err := ParseLevel(name); err == nil {
			t.Errorf("ParseLevel(%s) succeeded", name)
		}
	}
}

// TestLevelValues pins the level numbers JSONL records carry: a trace
// file written by any version must read back under the same names.
func TestLevelValues(t *testing.T) {
	want := map[Level]uint32{
		LevelBank: 1, LevelLatency: 4, LevelStall: 8,
		LevelRqst: 16, LevelRsp: 32, LevelCMC: 64,
	}
	for l, v := range want {
		if uint32(l) != v {
			t.Errorf("%v = %d, want %d", l, uint32(l), v)
		}
	}
	if LevelAll != 125 {
		t.Errorf("LevelAll = %d, want 125 (every level above)", uint32(LevelAll))
	}
}

func TestTextTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewText(&buf, LevelCMC|LevelLatency)
	tr.Emit(Event{Cycle: 9, Kind: LevelCMC, Dev: 0, Quad: 1, Vault: 2, Bank: 3, Cmd: "hmc_lock", Tag: 7, Addr: 0x40})
	tr.Emit(Event{Cycle: 10, Kind: LevelBank, Cmd: "suppressed"}) // filtered level
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hmc_lock") {
		t.Errorf("CMC op name missing from trace: %q", out)
	}
	if !strings.Contains(out, "CMC") {
		t.Errorf("kind name missing: %q", out)
	}
	if strings.Contains(out, "suppressed") {
		t.Errorf("filtered event leaked: %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("want exactly one record, got %q", out)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf, LevelAll)
	want := []Event{
		{Cycle: 1, Kind: LevelRqst, Dev: 0, Quad: 2, Vault: 17, Bank: 4, Cmd: "WR64", Tag: 3, Addr: 0x1000},
		{Cycle: 5, Kind: LevelCMC, Dev: 0, Quad: 0, Vault: 0, Bank: 0, Cmd: "hmc_trylock", Tag: 4, Addr: 0x40, Value: 2},
		{Cycle: 6, Kind: LevelLatency, Dev: 0, Quad: 0, Vault: 0, Bank: 0, Cmd: "RD16", Tag: 5, Value: 6, Detail: "round trip"},
	}
	for _, e := range want {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cycle != want[i].Cycle || got[i].Cmd != want[i].Cmd || got[i].Value != want[i].Value {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].KindName != "CMC" {
		t.Errorf("KindName = %q", got[1].KindName)
	}
}

// TestJSONLRoundTripDeepEqual pins the full emit -> parse round trip:
// one event of every kind with every field populated must come back
// field-for-field identical (with KindName filled in by the sink).
func TestJSONLRoundTripDeepEqual(t *testing.T) {
	kinds := []Level{
		LevelBank, LevelLatency, LevelStall,
		LevelRqst, LevelRsp, LevelCMC,
	}
	want := make([]Event, 0, len(kinds))
	for i, k := range kinds {
		want = append(want, Event{
			Cycle: uint64(100 + i), Kind: k,
			Dev: i % 2, Quad: i % 4, Vault: i, Bank: i % 8,
			Cmd: "CMD" + k.String(), Tag: uint16(i),
			Addr: 0x1000 + uint64(i)*64, Value: uint64(i) * 7,
			Detail: "detail " + k.String(),
		})
	}
	// Negative coordinates (the not-applicable marker) must survive too.
	want = append(want, Event{
		Cycle: 999, Kind: LevelStall, Dev: 0, Quad: -1, Vault: -1, Bank: -1,
		Cmd: "RD64", Tag: 42, Addr: 0x40, Detail: "send stall",
	})

	var buf bytes.Buffer
	tr := NewJSONL(&buf, LevelAll)
	for _, e := range want {
		tr.Emit(e)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The sink stamps the textual category; mirror that in the expectation
	// and then require exact equality.
	for i := range want {
		want[i].KindName = want[i].Kind.String()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestAnalysisReportGolden pins the hmc-trace report format for a fixed
// event stream. The exact text is a contract with log scrapers and with
// the EXPERIMENTS.md transcripts.
func TestAnalysisReportGolden(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: LevelRqst, Vault: 3, Cmd: "WR64", Tag: 1, Addr: 0x40},
		{Cycle: 11, Kind: LevelRqst, Vault: 3, Cmd: "RD64", Tag: 2, Addr: 0x40},
		{Cycle: 12, Kind: LevelRqst, Vault: 5, Cmd: "RD64", Tag: 3, Addr: 0x80},
		{Cycle: 13, Kind: LevelCMC, Vault: 3, Cmd: "hmc_lock", Tag: 1, Addr: 0x40},
		{Cycle: 14, Kind: LevelLatency, Vault: -1, Cmd: "RD64", Tag: 2, Value: 3},
		{Cycle: 15, Kind: LevelLatency, Vault: -1, Cmd: "RD64", Tag: 3, Value: 6},
		{Cycle: 16, Kind: LevelStall, Vault: -1, Cmd: "WR64", Tag: 4, Addr: 0x40},
	}
	got := Analyze(events).Report(2)
	want := `trace: 7 events over cycles 10..16

events by category:
  RQST       3
  LATENCY    2
  CMC        1
  STALL      1

top commands:
  RD64           4
  WR64           2

CMC operations (by registered name):
  hmc_lock       1

round-trip latency: min=3 max=6 avg=4.50 n=2
latency histogram: n=2 [3..4]=1 [5..8]=1
p50 <= 4 cycles, p99 <= 8 cycles

hottest vaults:
  vault 3    2 requests
  vault 5    1 requests
`
	if got != want {
		t.Errorf("report diverged from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got := Analyze(nil).Report(5); got != "empty trace\n" {
		t.Errorf("empty analysis report = %q", got)
	}
}

func TestParseJSONLError(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("{bad json")); err == nil {
		t.Error("ParseJSONL accepted malformed input")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(LevelStall | LevelBank)
	r.Emit(Event{Kind: LevelStall, Cmd: "a"})
	r.Emit(Event{Kind: LevelBank, Cmd: "b"})
	r.Emit(Event{Kind: LevelCMC, Cmd: "c"}) // filtered
	if got := len(r.Events()); got != 2 {
		t.Fatalf("recorded %d events, want 2", got)
	}
	if got := r.OfKind(LevelBank); len(got) != 1 || got[0].Cmd != "b" {
		t.Errorf("OfKind(Bank) = %+v", got)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

func TestEnabledGating(t *testing.T) {
	tr := NewText(&bytes.Buffer{}, LevelLatency)
	if tr.Enabled(LevelBank) {
		t.Error("Enabled(Bank) = true for latency-only tracer")
	}
	if !tr.Enabled(LevelLatency) {
		t.Error("Enabled(Latency) = false")
	}
}

// TestTextFormatGolden pins the human-readable trace line format, which
// downstream log scrapers depend on.
func TestTextFormatGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewText(&buf, LevelAll)
	tr.Emit(Event{
		Cycle: 42, Kind: LevelCMC, Dev: 1, Quad: 2, Vault: 17, Bank: 3,
		Cmd: "hmc_lock", Tag: 9, Addr: 0x40, Value: 7, Detail: "note",
	})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "HMCSIM_TRACE : 42 : CMC : dev=1 quad=2 vault=17 bank=3 cmd=hmc_lock tag=9 addr=0x40 value=7 : note\n"
	if got := buf.String(); got != want {
		t.Errorf("text format changed:\n got %q\nwant %q", got, want)
	}
}
