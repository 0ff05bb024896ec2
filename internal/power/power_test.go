package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hmccmd"
)

func TestChargeRequestComponents(t *testing.T) {
	p := Params{DRAMAccessPJ: 100, XbarFlitPJ: 10, SerDesFlitPJ: 20, AtomicALUPJ: 5, CMCALUPJ: 7, StaticPJPerCycle: 1}
	m := New(p)
	// A RD64: 1 request FLIT, 5 response FLITs, 4 DRAM blocks.
	m.ChargeRequest(hmccmd.ClassRead, 1, 5, 4)
	if m.DRAM != 400 {
		t.Errorf("DRAM = %v", m.DRAM)
	}
	if m.Xbar != 60 {
		t.Errorf("Xbar = %v", m.Xbar)
	}
	if m.SerDes != 120 {
		t.Errorf("SerDes = %v", m.SerDes)
	}
	if m.ALU != 0 {
		t.Errorf("read charged ALU %v", m.ALU)
	}
	// Atomics and CMC ops charge their ALUs.
	m.ChargeRequest(hmccmd.ClassAtomic, 1, 1, 1)
	if m.ALU != 5 {
		t.Errorf("atomic ALU = %v", m.ALU)
	}
	m.ChargeRequest(hmccmd.ClassCMC, 2, 2, 1)
	if m.ALU != 12 {
		t.Errorf("CMC ALU = %v", m.ALU)
	}
	if m.Ops != 3 {
		t.Errorf("Ops = %d", m.Ops)
	}
}

func TestStaticAndTotals(t *testing.T) {
	m := New(Params{StaticPJPerCycle: 2})
	m.ChargeCycles(50)
	if m.Static() != 100 || m.TotalPJ() != 100 {
		t.Errorf("static %v total %v", m.Static(), m.TotalPJ())
	}
}

func TestAvgPower(t *testing.T) {
	m := New(Params{StaticPJPerCycle: 1000})
	m.ChargeCycles(1000)
	// 1e6 pJ over 1000 cycles at 1 GHz = 1e-6 J over 1e-6 s = 1 W.
	if got := m.AvgPowerWatts(1000, 1.0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("power = %v W", got)
	}
	if m.AvgPowerWatts(0, 1.0) != 0 {
		t.Error("zero-cycle power not 0")
	}
}

func TestDefaultsAndString(t *testing.T) {
	m := New(DefaultParams())
	m.ChargeRequest(hmccmd.ClassWrite, 5, 1, 4)
	m.ChargeCycles(10)
	if m.TotalPJ() <= 0 {
		t.Error("defaults produced no energy")
	}
	if !strings.Contains(m.String(), "total=") {
		t.Errorf("String() = %q", m.String())
	}
	if m.Params() != DefaultParams() {
		t.Error("Params() mismatch")
	}
}

func TestAMOvsCacheEnergyShape(t *testing.T) {
	// The energy model should agree with the paper's Table II intuition:
	// an in-memory INC8 (1+1 FLITs) moves less energy than a cache-based
	// read-modify-write (6+6 FLITs, two DRAM accesses).
	amo := New(DefaultParams())
	amo.ChargeRequest(hmccmd.ClassAtomic, 1, 1, 1)
	cache := New(DefaultParams())
	cache.ChargeRequest(hmccmd.ClassRead, 1, 5, 4)  // RD64
	cache.ChargeRequest(hmccmd.ClassWrite, 5, 1, 4) // WR64
	if amo.TotalPJ() >= cache.TotalPJ() {
		t.Errorf("INC8 energy %v >= cache RMW energy %v", amo.TotalPJ(), cache.TotalPJ())
	}
}
