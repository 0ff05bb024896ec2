package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestReadLimitBoundary pins the request-size cap at its boundary for
// every framing: content of exactly max bytes is accepted and max+1 is
// refused, whether a JSON line ends in LF, CRLF or EOF, and for binary
// frame bodies. The cap counts content only, never the line ending. A
// binary stream that ends inside a frame reads as io.ErrUnexpectedEOF
// (a disconnect to the server, ErrClientClosed to the client), and one
// that ends between frames as io.EOF. A 16-byte reader buffer makes
// lines span buffer fills (the scratch path); a 4 KiB one returns them
// straight from the buffer.
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
		{"binary at EOF", "", true, io.EOF},
		{"binary short header", frame(max)[:2], true, io.ErrUnexpectedEOF},
		{"binary short body", frame(max)[:frameHeaderLen+1], true, io.ErrUnexpectedEOF},
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

// TestReadFrameAllocs pins the binary frame reader at zero allocations
// per frame once its scratch is warm: the header is peeked from the
// bufio.Reader's buffer instead of being read into a local array that
// escapes through io.ReadFull.
func TestReadFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	const frames = 256
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], 48)
	stream := strings.Repeat(string(hdr[:])+strings.Repeat("x", 48), frames)
	br := bufio.NewReaderSize(strings.NewReader(stream), 4096)
	var scratch []byte
	read := func() {
		if body, err := readFrame(br, &scratch, maxLineBytes); err != nil || len(body) != 48 {
			t.Fatalf("readFrame = %d bytes, %v", len(body), err)
		}
	}
	read() // warm the scratch
	if avg := testing.AllocsPerRun(frames-2, read); avg != 0 {
		t.Errorf("readFrame: %.2f allocs/frame, want 0", avg)
	}
}

// TestHalfCloseAnswersEverything pipelines an init and 200 clocks over
// a Unix socket, closes the client's write side and requires every
// answer, in order, before the server closes the socket: a half-closed
// client still gets its answers, in both wire encodings.
func TestHalfCloseAnswersEverything(t *testing.T) {
	const clocks, trials = 200, 20
	srv := New(Config{})
	defer srv.Close()
	sock := t.TempDir() + "/hmcd.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	sess := uint64(0) // the server mints ids 1, 2, ... in init order
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		for trial := 0; trial < trials; trial++ {
			sess++
			nc, err := net.Dial("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			bin := proto == ProtoBinary
			var wire []byte
			if bin {
				wire = append(wire, `{"v":1,"id":1000,"op":"hello","proto":"binary"}`+"\n"...)
			}
			enc := AppendRequest
			if bin {
				enc = AppendRequestBinary
			}
			wire = enc(wire, OpInit, &Request{ID: 0, Preset: "2gb-dev"})
			for k := uint64(1); k <= clocks; k++ {
				wire = enc(wire, OpClock, &Request{ID: k, Sess: sess})
			}
			if _, err := nc.Write(wire); err != nil {
				t.Fatal(err)
			}
			if err := nc.(*net.UnixConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}

			br := bufio.NewReader(nc)
			if bin {
				if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"proto":"binary"`) {
					t.Fatalf("%s trial %d: hello answer %q, %v", proto, trial, line, err)
				}
			}
			var scratch []byte
			got := 0
			for ; ; got++ {
				var rsp Response
				if bin {
					body, err := readFrame(br, &scratch, clientMaxMessage)
					if err != nil {
						break
					}
					if err := DecodeResponseBinary(body, &rsp); err != nil {
						t.Fatal(err)
					}
				} else {
					line, err := readLine(br, &scratch, clientMaxMessage)
					if err != nil {
						break
					}
					if err := json.Unmarshal(line, &rsp); err != nil {
						t.Fatal(err)
					}
				}
				switch {
				case !rsp.OK:
					t.Fatalf("%s trial %d: answer %d failed: %s %s", proto, trial, got, rsp.Code, rsp.Err)
				case rsp.ID != uint64(got):
					t.Fatalf("%s trial %d: answer %d has id %d", proto, trial, got, rsp.ID)
				case got == 0 && rsp.Sess != sess:
					t.Fatalf("%s trial %d: init minted session %d, want %d", proto, trial, rsp.Sess, sess)
				case rsp.Cycle != uint64(got):
					t.Fatalf("%s trial %d: clock %d answered cycle %d", proto, trial, got, rsp.Cycle)
				}
			}
			nc.Close()
			if got != clocks+1 {
				t.Fatalf("%s trial %d: %d of %d answers before the server closed the socket",
					proto, trial, got, clocks+1)
			}
		}
	}
}

// TestStalledReaderDropped pipelines more clock requests than the
// response queue holds on a connection that never reads. The server
// must drop that connection alone: another connection's session still
// answers, and after Close no goroutine is left behind.
func TestStalledReaderDropped(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := New(Config{})
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	stalledSess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	liveSess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}

	stalled, stalledEnd := net.Pipe()
	srv.ServeConn(stalledEnd)
	written := make(chan struct{})
	go func() {
		defer close(written)
		var line []byte
		for k := uint64(1); k <= 3*connWriteDepth; k++ {
			line = AppendRequest(line[:0], OpClock, &Request{ID: k, Sess: stalledSess})
			if _, err := stalled.Write(line); err != nil {
				return // the server dropped the connection
			}
		}
	}()

	dropped := srv.Metrics().Lookup("hmc_server_conns_dropped_total")
	for deadline := time.Now().Add(10 * time.Second); dropped.Number() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("conns_dropped = %v, want 1", dropped.Number())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Clock(liveSess); err != nil {
		t.Fatalf("live session behind another connection's stall: %v", err)
	}

	cl.Close()
	srv.Close()
	stalled.Close()
	<-written
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the server", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
