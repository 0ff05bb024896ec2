package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// TestReadLimitBoundary pins the request-size cap at its boundary for
// every framing: content of exactly max bytes is accepted and max+1 is
// refused, whether a JSON line ends in LF, CRLF or EOF, and for binary
// frame bodies. The cap counts content only, never the line ending. A
// 16-byte reader buffer makes lines span buffer fills (the scratch
// path); a 4 KiB one returns them straight from the buffer.
func TestReadLimitBoundary(t *testing.T) {
	const max = 64
	body := func(n int) string { return strings.Repeat("x", n) }
	frame := func(n int) string {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(n))
		return string(hdr[:]) + body(n)
	}
	cases := []struct {
		name   string
		input  string
		binary bool
		want   error // nil: accepted with content body(max)
	}{
		{"LF max", body(max) + "\n", false, nil},
		{"LF max+1", body(max+1) + "\n", false, errLineTooLong},
		{"CRLF max", body(max) + "\r\n", false, nil},
		{"CRLF max+1", body(max+1) + "\r\n", false, errLineTooLong},
		{"unterminated max", body(max), false, nil},
		{"unterminated max+1", body(max + 1), false, errLineTooLong},
		{"binary max", frame(max), true, nil},
		{"binary max+1", frame(max + 1), true, errFrameSkipped},
	}
	for _, size := range []int{16, 4096} {
		for _, c := range cases {
			br := bufio.NewReaderSize(strings.NewReader(c.input), size)
			var scratch []byte
			var got []byte
			var err error
			if c.binary {
				got, err = readFrame(br, &scratch, max)
			} else {
				got, err = readLine(br, &scratch, max)
			}
			switch {
			case c.want != nil && !errors.Is(err, c.want):
				t.Errorf("%s (buffer %d): err %v, want %v", c.name, size, err, c.want)
			case c.want == nil && (err != nil || string(got) != body(max)):
				t.Errorf("%s (buffer %d): got %q, %v; want the %d-byte content", c.name, size, got, err, max)
			}
		}
	}
}
