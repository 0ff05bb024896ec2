// Package power implements the optional timing/power extension the paper
// lists as future work (§VII): "we may be able to distill the necessary
// data down to the point where we can reasonably model the timing and
// power characteristics of an arbitrary HMC device".
//
// The model is deliberately parametric rather than silicon-calibrated
// (the paper's stated reason for excluding power from the core): every
// coefficient is a field of Params, so a user with vendor data can plug
// their own numbers in. The defaults are order-of-magnitude figures
// assembled from published stacked-DRAM estimates: DRAM array access
// energy per 16-byte block, logic-layer switching energy per FLIT
// traversal, additional ALU energy for atomic/CMC operations, SerDes
// energy per link FLIT, and a static floor per cycle.
package power

import (
	"fmt"

	"repro/internal/hmccmd"
	"repro/internal/metrics"
)

// Params holds the energy coefficients in picojoules.
type Params struct {
	// DRAMAccessPJ is charged per 16-byte DRAM block touched.
	DRAMAccessPJ float64
	// XbarFlitPJ is charged per FLIT crossing the logic-layer switch
	// (request and response directions).
	XbarFlitPJ float64
	// SerDesFlitPJ is charged per FLIT serialized onto or off a link.
	SerDesFlitPJ float64
	// AtomicALUPJ is charged per atomic (AMO) execution.
	AtomicALUPJ float64
	// CMCALUPJ is charged per custom memory cube execution.
	CMCALUPJ float64
	// StaticPJPerCycle is the per-cycle leakage/background floor for the
	// whole device.
	StaticPJPerCycle float64
}

// DefaultParams returns the order-of-magnitude default coefficients.
func DefaultParams() Params {
	return Params{
		DRAMAccessPJ:     120,
		XbarFlitPJ:       6,
		SerDesFlitPJ:     24,
		AtomicALUPJ:      8,
		CMCALUPJ:         10,
		StaticPJPerCycle: 50,
	}
}

// Model accumulates energy for one device.
type Model struct {
	p Params

	// Totals by component, in picojoules; Static is a method.
	DRAM, Xbar, SerDes, ALU float64
	// Ops counts charged operations.
	Ops uint64
	// cycles counts the device cycles charged static energy.
	cycles uint64
}

// New returns a model with the given parameters.
func New(p Params) *Model { return &Model{p: p} }

// Params returns the model's coefficients.
func (m *Model) Params() Params { return m.p }

// ChargeRequest charges one executed request: rqstFlits in, rspFlits out,
// and blocks 16-byte DRAM blocks touched.
func (m *Model) ChargeRequest(class hmccmd.Class, rqstFlits, rspFlits, blocks int) {
	m.Ops++
	m.DRAM += float64(blocks) * m.p.DRAMAccessPJ
	m.Xbar += float64(rqstFlits+rspFlits) * m.p.XbarFlitPJ
	m.SerDes += float64(rqstFlits+rspFlits) * m.p.SerDesFlitPJ
	switch class {
	case hmccmd.ClassAtomic, hmccmd.ClassPostedAtomic:
		m.ALU += m.p.AtomicALUPJ
	case hmccmd.ClassCMC:
		m.ALU += m.p.CMCALUPJ
	}
}

// ChargeCycles charges static energy for n device cycles.
func (m *Model) ChargeCycles(n uint64) { m.cycles += n }

// Static returns the static energy charged so far in picojoules: the
// charged cycles times the per-cycle floor, one correctly rounded
// product however the cycles were batched.
func (m *Model) Static() float64 {
	return float64(m.cycles) * m.p.StaticPJPerCycle
}

// TotalPJ returns the accumulated energy in picojoules.
func (m *Model) TotalPJ() float64 {
	return m.DRAM + m.Xbar + m.SerDes + m.ALU + m.Static()
}

// AvgPowerWatts converts the accumulated energy over a cycle count at a
// clock rate into average power.
func (m *Model) AvgPowerWatts(cycles uint64, clockGHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / (clockGHz * 1e9)
	return m.TotalPJ() * 1e-12 / seconds
}

// RegisterMetrics exposes the model's accumulated energy through a
// metrics registry: per-component gauges (labeled comp=dram|xbar|serdes|
// alu|static), the total as metrics.NamePowerTotal, and the charged
// operation count. All are Func instruments — the charge paths stay
// untouched; values are read only at scrape/sample time, unsynchronized
// with a running clock.
func (m *Model) RegisterMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	comp := func(name string, f func() float64, c string) {
		reg.GaugeFunc(name, f, append(labels, metrics.L("comp", c))...)
	}
	comp("hmc_power_component_pj", func() float64 { return m.DRAM }, "dram")
	comp("hmc_power_component_pj", func() float64 { return m.Xbar }, "xbar")
	comp("hmc_power_component_pj", func() float64 { return m.SerDes }, "serdes")
	comp("hmc_power_component_pj", func() float64 { return m.ALU }, "alu")
	comp("hmc_power_component_pj", m.Static, "static")
	reg.GaugeFunc(metrics.NamePowerTotal, m.TotalPJ, labels...)
	reg.CounterFunc("hmc_power_ops_total", func() uint64 { return m.Ops }, labels...)
}

// String renders the component breakdown.
func (m *Model) String() string {
	return fmt.Sprintf("dram=%.1fpJ xbar=%.1fpJ serdes=%.1fpJ alu=%.1fpJ static=%.1fpJ total=%.1fpJ ops=%d",
		m.DRAM, m.Xbar, m.SerDes, m.ALU, m.Static(), m.TotalPJ(), m.Ops)
}
