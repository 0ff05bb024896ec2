package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckLimits pins the floors of -max-sessions and -ttl: a negative
// value is refused with an error naming the flag, before any server
// starts; zero keeps its documented meaning (default cap, no eviction).
func TestCheckLimits(t *testing.T) {
	for _, c := range []struct {
		maxSessions int
		ttl         time.Duration
		bad         string // flag named in the error; "" = accepted
	}{
		{0, 0, ""},
		{65536, 5 * time.Minute, ""},
		{-5, 0, "-max-sessions"},
		{-1, time.Second, "-max-sessions"},
		{10, -time.Second, "-ttl"},
		{0, -1, "-ttl"},
	} {
		err := checkLimits(c.maxSessions, c.ttl)
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
