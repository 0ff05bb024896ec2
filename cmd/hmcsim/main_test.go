package main

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTopoKind(t *testing.T) {
	k, err := topoKind("chain")
	if err != nil || k != sim.KindChain {
		t.Errorf("topoKind(chain) = %v, %v", k, err)
	}
	if _, err := topoKind("mesh"); err == nil {
		t.Error("topoKind(mesh) succeeded")
	}
}

// TestCheckMode pins that a mode flag accepts only its listed values: a
// mistyped -gups-mode or -bfs-mode used to run the other experiment.
func TestCheckMode(t *testing.T) {
	for _, c := range []struct {
		flag, v string
		ok      bool
	}{
		{"gups-mode", "amo", true},
		{"gups-mode", "baseline", true},
		{"gups-mode", "bogus", false},
		{"gups-mode", "AMO", false},
		{"gups-mode", "", false},
		{"bfs-mode", "cmc", true},
		{"bfs-mode", "baseline", true},
		{"bfs-mode", "bogus", false},
		{"bfs-mode", "amo", false},
	} {
		err := checkMode(c.flag, c.v)
		if (err == nil) != c.ok {
			t.Errorf("-%s %q: err = %v, want ok=%v", c.flag, c.v, err, c.ok)
		}
		if want := strings.Join(modeValues[c.flag], " or "); err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("-%s %q: %v does not name %s", c.flag, c.v, err, want)
		}
	}
}

func TestStringList(t *testing.T) {
	var l stringList
	_ = l.Set("a")
	_ = l.Set("b")
	if l.String() != "a,b" || len(l) != 2 {
		t.Errorf("stringList = %q", l.String())
	}
}
