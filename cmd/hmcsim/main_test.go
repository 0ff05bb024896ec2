package main

import (
	"testing"

	"repro/internal/topo"
)

func TestTopoKind(t *testing.T) {
	k, err := topoKind("chain")
	if err != nil || k != topo.KindChain {
		t.Errorf("topoKind(chain) = %v, %v", k, err)
	}
	if _, err := topoKind("mesh"); err == nil {
		t.Error("topoKind(mesh) succeeded")
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
