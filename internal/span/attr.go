package span

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hmccmd"
	"repro/internal/stats"
)

// StageID names one latency stage — the interval between two
// consecutive stage-transition events of a request. Stage cycles
// telescope: summed over a closed span they equal the end-to-end
// latency exactly, because every stage event closes the delta since the
// previous one and markers never advance the clock.
type StageID uint8

// The pipeline stages, in request order.
const (
	// StageHostSend is the span-opening instant (always 0 cycles; kept
	// so every event maps to a stage).
	StageHostSend StageID = iota
	// StageLink is host-link queue wait plus request FLIT serialization
	// (HostSend → LinkIngress).
	StageLink
	// StageXbar is crossbar request-queue wait and arbitration
	// (LinkIngress → VaultEnq).
	StageXbar
	// StageVault is vault-queue wait, bank-timing wait and execution
	// (VaultEnq → Execute).
	StageVault
	// StageRspVault is response-queue wait in the vault
	// (Execute → RspXbar).
	StageRspVault
	// StageRspLink is crossbar response drain plus response FLIT
	// serialization (RspXbar → RspEgress).
	StageRspLink
	// StageHostDrain is host-link response-queue wait until the host
	// pops (RspEgress → HostRecv).
	StageHostDrain
	// StageTopoHop is inter-cube request forwarding delay
	// (TopoForward → remote HostSend).
	StageTopoHop
	// StageTopoReturn is inter-cube response return delay
	// (remote HostRecv → TopoArrive).
	StageTopoReturn

	numStages
)

var stageNames = [numStages]string{
	StageHostSend:   "host_send",
	StageLink:       "link",
	StageXbar:       "xbar",
	StageVault:      "vault",
	StageRspVault:   "rsp_vault",
	StageRspLink:    "rsp_link",
	StageHostDrain:  "host_drain",
	StageTopoHop:    "topo_hop",
	StageTopoReturn: "topo_return",
}

// String returns the stage's name.
func (s StageID) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// stageOf maps a stage-transition event kind to the stage the elapsed
// cycles belong to. A HostSend on a forwarded request ends the
// inter-cube hop; otherwise it opens the span (zero-width).
func stageOf(kind Kind, forwarded bool) StageID {
	switch kind {
	case KindHostSend:
		if forwarded {
			return StageTopoHop
		}
		return StageHostSend
	case KindLinkIngress:
		return StageLink
	case KindVaultEnq:
		return StageXbar
	case KindExecute:
		return StageVault
	case KindRspXbar:
		return StageRspVault
	case KindRspEgress:
		return StageRspLink
	case KindHostRecv:
		return StageHostDrain
	case KindTopoForward:
		return StageHostSend // opens (or re-opens a hop chain): zero-width
	case KindTopoArrive:
		return StageTopoReturn
	}
	return StageHostSend
}

// StageAttr aggregates one stage across all closed spans.
type StageAttr struct {
	// Stage identifies the interval.
	Stage StageID
	// Cycles is the total time attributed to the stage.
	Cycles uint64
	// Pct is Cycles as a share of all attributed cycles.
	Pct float64
	// Summary holds per-request min/max/avg for the stage.
	Summary stats.Summary
}

// ClassAttr summarizes end-to-end latency for one request class.
type ClassAttr struct {
	// Class is the command class (READ, WRITE, ATOMIC, CMC, ...).
	Class hmccmd.Class
	// Count is the number of closed spans in the class.
	Count uint64
	// P50 and P99 are latency percentiles (power-of-two bucket upper
	// bounds, matching the metrics histograms).
	P50, P99 uint64
	// Summary holds the class's min/max/avg end-to-end latency.
	Summary stats.Summary
}

// Attribution is the per-stage latency-attribution table built from a
// flight-recorder dump: where closed requests spent their cycles, and
// the latency distribution per request class.
type Attribution struct {
	// Stages lists every stage that accumulated cycles, pipeline order.
	Stages []StageAttr
	// Classes lists per-class latency distributions, by class value.
	Classes []ClassAttr
	// Spans is the number of closed spans attributed.
	Spans int
	// InFlight is the number of spans left open in the dump (excluded
	// from the table).
	InFlight int
	// TotalCycles is the summed end-to-end latency of all closed spans;
	// per-stage Cycles sum to it exactly.
	TotalCycles uint64
}

// spanAcc accumulates one in-progress span during the event scan.
type spanAcc struct {
	open      bool
	forwarded bool
	openCycle uint64
	lastCycle uint64
	class     uint8
	stages    [numStages]uint64
}

// Attribute builds the attribution table from a flight-recorder dump
// (oldest-first, as returned by Tracer.Events). Spans whose opening
// event was overwritten by the ring are skipped; spans still open at
// the end of the dump count as InFlight.
func Attribute(events []Event) *Attribution {
	var acc [numTags]spanAcc
	a := &Attribution{}
	var stages [numStages]struct {
		cycles uint64
		sum    stats.Summary
	}
	classes := make(map[uint8]*struct {
		hist stats.Histogram
		sum  stats.Summary
	})

	closeSpan := func(s *spanAcc, cycle uint64) {
		lat := cycle - s.openCycle
		a.Spans++
		a.TotalCycles += lat
		for i := range s.stages {
			if s.stages[i] > 0 {
				stages[i].cycles += s.stages[i]
				stages[i].sum.Add(s.stages[i])
			}
		}
		c := classes[s.class]
		if c == nil {
			c = &struct {
				hist stats.Histogram
				sum  stats.Summary
			}{}
			classes[s.class] = c
		}
		c.hist.Add(lat)
		c.sum.Add(lat)
		s.open = false
	}

	for _, e := range events {
		if e.Kind.Marker() {
			continue
		}
		s := &acc[e.Tag&uint16(numTags-1)]
		opening := e.Kind == KindTopoForward || (e.Kind == KindHostSend && !s.open)
		if opening && !s.open {
			*s = spanAcc{open: true, forwarded: e.Kind == KindTopoForward,
				openCycle: e.Cycle, lastCycle: e.Cycle, class: e.Class}
			if e.Kind == KindHostSend {
				continue
			}
		}
		if !s.open {
			continue // opening event lost to ring wrap
		}
		s.stages[stageOf(e.Kind, s.forwarded)] += e.Cycle - s.lastCycle
		s.lastCycle = e.Cycle
		switch {
		case e.Kind == KindTopoArrive,
			e.Kind == KindHostRecv && !s.forwarded,
			e.Kind == KindExecute && e.Arg&ArgPosted != 0:
			closeSpan(s, e.Cycle)
		}
	}
	for i := range acc {
		if acc[i].open {
			a.InFlight++
		}
	}

	for s := StageID(0); s < numStages; s++ {
		if stages[s].cycles == 0 {
			continue
		}
		pct := 0.0
		if a.TotalCycles > 0 {
			pct = 100 * float64(stages[s].cycles) / float64(a.TotalCycles)
		}
		a.Stages = append(a.Stages, StageAttr{
			Stage: s, Cycles: stages[s].cycles, Pct: pct, Summary: stages[s].sum,
		})
	}
	for cls, c := range classes {
		a.Classes = append(a.Classes, ClassAttr{
			Class: hmccmd.Class(cls), Count: c.sum.N(),
			P50: c.hist.Percentile(50), P99: c.hist.Percentile(99),
			Summary: c.sum,
		})
	}
	sort.Slice(a.Classes, func(i, j int) bool { return a.Classes[i].Class < a.Classes[j].Class })
	return a
}

// Report renders the attribution table.
func (a *Attribution) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Span attribution: %d closed spans, %d in flight, %d total cycles\n",
		a.Spans, a.InFlight, a.TotalCycles)
	if len(a.Stages) > 0 {
		fmt.Fprintf(&b, "%-12s %12s %7s %10s %10s %10s\n",
			"stage", "cycles", "pct", "min", "max", "avg")
		for _, s := range a.Stages {
			fmt.Fprintf(&b, "%-12s %12d %6.1f%% %10d %10d %10.2f\n",
				s.Stage, s.Cycles, s.Pct, s.Summary.Min(), s.Summary.Max(), s.Summary.Avg())
		}
	}
	if len(a.Classes) > 0 {
		fmt.Fprintf(&b, "%-12s %8s %10s %10s %10s %10s\n",
			"class", "spans", "p50", "p99", "min", "max")
		for _, c := range a.Classes {
			fmt.Fprintf(&b, "%-12s %8d %10d %10d %10d %10d\n",
				c.Class, c.Count, c.P50, c.P99, c.Summary.Min(), c.Summary.Max())
		}
	}
	return b.String()
}
