package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/hmccmd"
	"repro/internal/packet"
)

// requestShapesGolden holds the encoded words of every request shape a
// host driver builds: each architected read, write and posted write at
// its size, each atomic with its operands, and each CMC slot with 0, 2
// and 32 payload words.
const requestShapesGolden = "testdata/request_shapes.golden"

// requestShape is one request a host driver builds: a command and the
// length of its payload in words.
type requestShape struct {
	cmd   hmccmd.Rqst
	words int
}

// requestShapes lists every architected read, write, posted write and
// atomic with the payload its registered request length asks for, then
// every CMC slot with 0, 2 and 32 payload words.
func requestShapes() []requestShape {
	var out []requestShape
	for _, cmd := range hmccmd.Architected() {
		switch cmd.InfoRef().Class {
		case hmccmd.ClassRead, hmccmd.ClassWrite, hmccmd.ClassPostedWrite, hmccmd.ClassAtomic, hmccmd.ClassPostedAtomic:
			out = append(out, requestShape{cmd, 2 * (int(cmd.InfoRef().RqstFlits) - 1)})
		}
	}
	for _, cmd := range hmccmd.CMCSlots() {
		for _, n := range []int{0, 2, 32} {
			out = append(out, requestShape{cmd, n})
		}
	}
	return out
}

// shapePayload returns n distinct payload words.
func shapePayload(n int) []uint64 {
	pl := make([]uint64, n)
	for i := range pl {
		pl[i] = 0x0101_0101_0101_0101 * uint64(i+1)
	}
	return pl
}

// renderShape prints one built request: its fields, then its encoded
// words.
func renderShape(b *strings.Builder, r *packet.Rqst) error {
	words, err := r.Encode()
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "%v cub=%d adrs=%#x tag=%d slid=%d lng=%d payload=%d:",
		r.Cmd, r.CUB, r.ADRS, r.TAG, r.SLID, r.LNG, len(r.Payload))
	for _, w := range words {
		fmt.Fprintf(b, " %016x", w)
	}
	b.WriteByte('\n')
	return nil
}

// TestRequestShapesGolden pins every request shape, field by field and
// word by word, against testdata/request_shapes.golden.
func TestRequestShapesGolden(t *testing.T) {
	const cub, adrs, tag, link = 2, 0x3_2468_ACE0, 0x5A5, 3
	var b strings.Builder
	for _, sh := range requestShapes() {
		r, err := Build(sh.cmd, cub, adrs, tag, link, shapePayload(sh.words))
		if err != nil {
			t.Fatal(err)
		}
		if err := renderShape(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	got := b.String()
	want, err := os.ReadFile(requestShapesGolden)
	if err == nil && string(want) == got {
		return
	}
	f, ferr := os.CreateTemp("", "request-shapes-*")
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	if _, ferr := f.WriteString(got); ferr != nil {
		t.Fatal(ferr)
	}
	t.Fatalf("request shapes differ from %s (%v); the new rendering is in %s; if the change is intended, install it with\n\tcp %s %s",
		requestShapesGolden, err, f.Name(), f.Name(), requestShapesGolden)
}
