// Package trace implements the simulator's discrete tracing subsystem.
//
// HMC-Sim 1.0 shipped "powerful tracing capability that permitted users to
// see exactly how and where memory operations progressed through the
// device" (paper §IV-A); the 2.0 CMC requirement extends it so that
// user-defined CMC operations appear in trace files under their registered
// human-readable names, "resolved in the trace file just as any normal HMC
// command".
//
// Tracing is organized as a bitmask of event levels and pluggable sinks: a
// human-readable text writer, a machine-readable JSONL writer and an
// in-memory recorder for tests. A device feeds a sink through its trace
// observer (device.TraceSink); with no tracer attached it builds no
// records at all.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Level is a bitmask of trace event categories, mirroring the original
// simulator's trace-level macros.
type Level uint32

// Trace levels. JSONL records carry the number, so the values are
// fixed: 2 and 128 belonged to queue and power levels that nothing
// emitted and are not reused.
const (
	// LevelBank traces bank conflicts and bank busy stalls.
	LevelBank Level = 1
	// LevelLatency traces per-packet end-to-end latency at response
	// delivery.
	LevelLatency Level = 4
	// LevelStall traces send-side and internal pipeline stalls.
	LevelStall Level = 8
	// LevelRqst traces request packet processing.
	LevelRqst Level = 16
	// LevelRsp traces response packet construction.
	LevelRsp Level = 32
	// LevelCMC traces custom memory cube operation execution.
	LevelCMC Level = 64

	// LevelAll enables every category.
	LevelAll = LevelBank | LevelLatency | LevelStall | LevelRqst | LevelRsp | LevelCMC
)

var levelNames = []struct {
	l    Level
	name string
}{
	{LevelBank, "BANK"},
	{LevelLatency, "LATENCY"},
	{LevelStall, "STALL"},
	{LevelRqst, "RQST"},
	{LevelRsp, "RSP"},
	{LevelCMC, "CMC"},
}

// String renders the level set as a "+"-joined list of category names.
func (l Level) String() string {
	if l == 0 {
		return "NONE"
	}
	var parts []string
	for _, ln := range levelNames {
		if l&ln.l != 0 {
			parts = append(parts, ln.name)
		}
	}
	if len(parts) == 0 {
		return fmt.Sprintf("Level(%#x)", uint32(l))
	}
	return strings.Join(parts, "+")
}

// ParseLevel parses a "+"-joined list of category names (case
// insensitive); "all" and "none" are accepted.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "all":
		return LevelAll, nil
	case "none", "":
		return 0, nil
	}
	var l Level
	for _, part := range strings.Split(s, "+") {
		found := false
		for _, ln := range levelNames {
			if strings.EqualFold(strings.TrimSpace(part), ln.name) {
				l |= ln.l
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("trace: unknown level %q", part)
		}
	}
	return l, nil
}

// Event is one trace record.
type Event struct {
	// Cycle is the device clock cycle the event occurred on.
	Cycle uint64 `json:"cycle"`
	// Kind is the (single) level bit categorizing the event.
	Kind Level `json:"kind"`
	// KindName is the textual category, filled in by the sinks.
	KindName string `json:"kind_name,omitempty"`
	// Dev, Quad, Vault and Bank locate the event; -1 marks
	// not-applicable coordinates.
	Dev   int `json:"dev"`
	Quad  int `json:"quad"`
	Vault int `json:"vault"`
	Bank  int `json:"bank"`
	// Cmd is the command mnemonic — for CMC operations, the op's
	// registered human-readable name.
	Cmd string `json:"cmd,omitempty"`
	// Tag is the request tag, if any.
	Tag uint16 `json:"tag"`
	// Addr is the target address, if any.
	Addr uint64 `json:"addr"`
	// Value carries an event-specific quantity (latency cycles for
	// LATENCY, the response ERRSTAT for RSP).
	Value uint64 `json:"value,omitempty"`
	// Detail is a freeform annotation.
	Detail string `json:"detail,omitempty"`
}

// Tracer is a sink for trace events. Implementations must tolerate
// concurrent Emit calls.
type Tracer interface {
	// Enabled reports whether the level is being collected; callers use
	// it to skip event construction on hot paths.
	Enabled(Level) bool
	// Emit records one event.
	Emit(Event)
}

func kindName(l Level) string {
	for _, ln := range levelNames {
		if l == ln.l {
			return ln.name
		}
	}
	return l.String()
}

// textBufSize is the TextTracer's preallocated buffer capacity;
// textFlushAt is the high-water mark that triggers a write to the
// underlying sink. The gap leaves room for a typical record so that most
// Emit calls append without growing the buffer.
const (
	textBufSize = 64 << 10
	textFlushAt = textBufSize - 4096
)

// TextTracer writes human-readable single-line records:
//
//	HMCSIM_TRACE : <cycle> : <KIND> : dev=.. quad=.. vault=.. bank=.. cmd=.. tag=.. addr=0x.. value=..[ : detail]
//
// Each Emit is a series of appends (strconv for the numeric fields) into
// a preallocated buffer that is handed to the underlying writer only
// when it fills or on Flush. Heavily traced runs spend real time in
// tracing — the original simulator's trace files grow by gigabytes — so
// the per-event cost is a lock, ~20 appends and no allocation, not a
// fmt parse per event.
type TextTracer struct {
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	levels Level
	err    error
}

// NewText returns a text tracer collecting the given levels. Call Flush
// when tracing is done; events still in the buffer are otherwise never
// written.
func NewText(w io.Writer, levels Level) *TextTracer {
	return &TextTracer{w: w, buf: make([]byte, 0, textBufSize), levels: levels}
}

// Enabled implements Tracer.
func (t *TextTracer) Enabled(l Level) bool { return t.levels&l != 0 }

// Emit implements Tracer.
func (t *TextTracer) Emit(e Event) {
	if !t.Enabled(e.Kind) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf
	b = append(b, "HMCSIM_TRACE : "...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, " : "...)
	b = append(b, kindName(e.Kind)...)
	b = append(b, " : dev="...)
	b = strconv.AppendInt(b, int64(e.Dev), 10)
	b = append(b, " quad="...)
	b = strconv.AppendInt(b, int64(e.Quad), 10)
	b = append(b, " vault="...)
	b = strconv.AppendInt(b, int64(e.Vault), 10)
	b = append(b, " bank="...)
	b = strconv.AppendInt(b, int64(e.Bank), 10)
	b = append(b, " cmd="...)
	b = append(b, e.Cmd...)
	b = append(b, " tag="...)
	b = strconv.AppendUint(b, uint64(e.Tag), 10)
	b = append(b, " addr=0x"...)
	b = strconv.AppendUint(b, e.Addr, 16)
	b = append(b, " value="...)
	b = strconv.AppendUint(b, e.Value, 10)
	if e.Detail != "" {
		b = append(b, " : "...)
		b = append(b, e.Detail...)
	}
	b = append(b, '\n')
	t.buf = b
	if len(t.buf) >= textFlushAt {
		t.flushLocked()
	}
}

// flushLocked writes the buffer out and resets it, retaining the first
// write error (later events are still formatted but also dropped by the
// failing writer; the error surfaces from Flush).
func (t *TextTracer) flushLocked() {
	if len(t.buf) == 0 {
		return
	}
	if _, err := t.w.Write(t.buf); err != nil && t.err == nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}

// Flush writes buffered events to the underlying writer and returns the
// first write error encountered over the tracer's lifetime.
func (t *TextTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	return t.err
}

// JSONLTracer writes one JSON object per line, parseable by ParseJSONL.
type JSONLTracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	enc    *json.Encoder
	levels Level
}

// NewJSONL returns a JSONL tracer collecting the given levels.
func NewJSONL(w io.Writer, levels Level) *JSONLTracer {
	bw := bufio.NewWriter(w)
	return &JSONLTracer{w: bw, enc: json.NewEncoder(bw), levels: levels}
}

// Enabled implements Tracer.
func (t *JSONLTracer) Enabled(l Level) bool { return t.levels&l != 0 }

// Emit implements Tracer.
func (t *JSONLTracer) Emit(e Event) {
	if !t.Enabled(e.Kind) {
		return
	}
	e.KindName = kindName(e.Kind)
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.enc.Encode(e)
}

// Flush drains buffered output to the underlying writer.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}

// recorderChunk is the Recorder's allocation unit: events are stored in
// fixed-size chunks appended to a chunk list, so recording N events
// costs N/recorderChunk allocations and never re-copies earlier events
// (a flat slice would copy the whole history on every growth step).
const recorderChunk = 256

// Recorder is an in-memory Tracer for tests and analysis.
type Recorder struct {
	mu     sync.Mutex
	levels Level
	chunks [][]Event
	n      int
}

// NewRecorder returns a recorder collecting the given levels.
func NewRecorder(levels Level) *Recorder { return &Recorder{levels: levels} }

// Enabled implements Tracer.
func (r *Recorder) Enabled(l Level) bool { return r.levels&l != 0 }

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	if !r.Enabled(e.Kind) {
		return
	}
	e.KindName = kindName(e.Kind)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.chunks) == 0 || len(r.chunks[len(r.chunks)-1]) == recorderChunk {
		r.chunks = append(r.chunks, make([]Event, 0, recorderChunk))
	}
	last := len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], e)
	r.n++
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// OfKind returns the recorded events matching the level mask.
func (r *Recorder) OfKind(mask Level) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, c := range r.chunks {
		for _, e := range c {
			if e.Kind&mask != 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

// Reset clears the recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.chunks = nil
	r.n = 0
}

// ParseJSONL reads back a JSONL trace stream.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: parsing JSONL record %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
