package sim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/metrics"
	"repro/internal/power"
)

// TestMetricsWiring drives a read through an instrumented simulator and
// checks that the device counters, per-class latency histograms and power
// gauges all surface through the registry. Scraping happens only while
// the simulation is idle, matching the documented synchronization model
// (the Func instruments read simulator state without locks).
func TestMetricsWiring(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newSim(t, WithMetrics(reg), WithPowerModel(power.New(power.DefaultParams())))

	rd, err := Build(hmccmd.RD64, 0, 0x4000, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	rsp := drive(t, s, 0)
	ReleaseRsp(rsp)

	lookupVal := func(name string, labels ...metrics.Label) float64 {
		t.Helper()
		m := reg.Lookup(name, labels...)
		if m == nil {
			t.Fatalf("metric %s%v not registered", name, labels)
		}
		return m.Number()
	}

	dev := metrics.L("dev", "0")
	if v := lookupVal("hmc_device_cycles_total", dev); v == 0 {
		t.Error("cycle counter did not advance")
	}
	if v := lookupVal(metrics.NameRqsts, dev, metrics.L("class", "READ")); v != 1 {
		t.Errorf("READ rqsts = %v, want 1", v)
	}
	// FLIT counters: RD64 request is 1 FLIT, its response 5 FLITs.
	if v := lookupVal(metrics.NameLinkFlits, dev, metrics.L("dir", "rqst")); v != 1 {
		t.Errorf("rqst flits = %v, want 1", v)
	}
	if v := lookupVal(metrics.NameLinkFlits, dev, metrics.L("dir", "rsp")); v != 5 {
		t.Errorf("rsp flits = %v, want 5", v)
	}
	if v := lookupVal(metrics.NamePowerTotal); v <= 0 {
		t.Errorf("power total = %v, want > 0", v)
	}

	m := reg.Lookup("hmc_request_latency_cycles", dev, metrics.L("class", hmccmd.ClassRead.String()))
	if m == nil {
		t.Fatal("latency histogram not registered")
	}
	h, ok := m.Histogram()
	if !ok || h.Count != 1 {
		t.Fatalf("latency histogram count = %+v", h)
	}
	// Uncongested round trip is three cycles (device package comment).
	if h.Min != 3 || h.Max != 3 {
		t.Errorf("latency min/max = %d/%d, want 3/3", h.Min, h.Max)
	}

	// Idle queues read zero occupancy after the run drains.
	if v := lookupVal(metrics.NameVaultOccTotal, dev); v != 0 {
		t.Errorf("idle vault occupancy = %v", v)
	}
}

// TestSamplerWiring checks that Clock drives the attached sampler and the
// resulting JSONL stream parses back with the conventional names present.
func TestSamplerWiring(t *testing.T) {
	reg := metrics.NewRegistry()
	var buf bytes.Buffer
	sm := metrics.NewSampler(reg, &buf, 8, metrics.WithTags(metrics.L("config", "4link")))
	s := newSim(t, WithMetrics(reg), WithSampler(sm))
	if s.Sampler() != sm {
		t.Fatal("Sampler accessor")
	}

	rd, err := Build(hmccmd.RD64, 0, 0x1000, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(0, rd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		s.Clock()
	}
	if _, ok := s.Recv(0); !ok {
		t.Fatal("no response after 24 cycles")
	}
	if err := sm.Flush(); err != nil {
		t.Fatal(err)
	}

	samples, err := metrics.ParseSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 { // cycles 8, 16, 24
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Cycle != 24 || last.Tags["config"] != "4link" {
		t.Errorf("last sample = cycle %d tags %v", last.Cycle, last.Tags)
	}
	found := false
	for k := range last.Values {
		if strings.HasPrefix(k, metrics.NameLinkFlits) {
			found = true
		}
	}
	if !found {
		t.Errorf("sample missing %s: %v", metrics.NameLinkFlits, last.Values)
	}
}

// TestMetricsMultiDevice checks per-device label separation in a chained
// topology.
func TestMetricsMultiDevice(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := New(config.FourLink4GB(), WithMetrics(reg), WithDevices(2, KindChain))
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	if reg.Lookup("hmc_device_cycles_total", metrics.L("dev", "0")) == nil ||
		reg.Lookup("hmc_device_cycles_total", metrics.L("dev", "1")) == nil {
		t.Error("per-device counters missing")
	}
}
