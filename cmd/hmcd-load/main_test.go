package main

import (
	"strings"
	"testing"
)

// TestCheckCounts pins the count flags' floors: -sessions, -rounds,
// -conns and -workers below 1 and -warmup below 0 are refused with an
// error naming the flag, before any server starts.
func TestCheckCounts(t *testing.T) {
	for _, c := range []struct {
		sessions, rounds, conns, workers, warmup int
		bad                                      string // flag named in the error; "" = accepted
	}{
		{10000, 3, 4, 32, 1, ""},
		{1, 1, 1, 1, 0, ""},
		{0, 3, 4, 32, 1, "-sessions"},
		{-5, 3, 4, 32, 1, "-sessions"},
		{10, 0, 4, 32, 1, "-rounds"},
		{10, -1, 4, 32, 1, "-rounds"},
		{10, 3, 0, 32, 1, "-conns"},
		{10, 3, -1, 32, 1, "-conns"},
		{10, 3, 4, 0, 1, "-workers"},
		{10, 3, 4, 32, -1, "-warmup"},
	} {
		err := checkCounts(c.sessions, c.rounds, c.conns, c.workers, c.warmup)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v: refused: %v", c, err)
		case c.bad != "" && err == nil:
			t.Errorf("%+v: accepted, want %s refused", c, c.bad)
		case c.bad != "" && !strings.HasPrefix(err.Error(), c.bad+" "):
			t.Errorf("%+v: %v does not name %s", c, err, c.bad)
		}
	}
}
