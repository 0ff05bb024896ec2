package config

import (
	"errors"
	"testing"
)

func TestPaperPresetsValid(t *testing.T) {
	for _, cfg := range []Config{FourLink4GB(), EightLink8GB(), TwoGBDev()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}

// TestByName pins every preset spelling a front end accepts (hmcsim
// -config, hmcd init) and the rejection of anything else.
func TestByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want Config
	}{
		{"4link4gb", FourLink4GB()},
		{"4Link-4GB", FourLink4GB()},
		{"4link-4gb", FourLink4GB()},
		{"8link8gb", EightLink8GB()},
		{"8Link-8GB", EightLink8GB()},
		{"2gbdev", TwoGBDev()},
		{"2gb-dev", TwoGBDev()},
		{"2GB_Dev", TwoGBDev()},
		{"2gb", TwoGBDev()},
	} {
		got, err := ByName(c.name)
		if err != nil {
			t.Errorf("ByName(%q): %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("ByName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
	for _, bad := range []string{"", "bogus", "16link-1tb", "4link", "4link4gbx"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) succeeded", bad)
		}
	}
}

func TestPaperEvaluationParameters(t *testing.T) {
	// Paper §V-B: max block size 64 bytes, request queue 64 slots,
	// crossbar queue 128 slots, on 4Link-4GB and 8Link-8GB devices.
	four := FourLink4GB()
	if four.MaxBlockSize != 64 || four.QueueDepth != 64 || four.XbarDepth != 128 {
		t.Errorf("4Link preset has wrong evaluation parameters: %+v", four)
	}
	if four.Links != 4 || four.CapacityGB != 4 {
		t.Errorf("4Link preset: %+v", four)
	}
	eight := EightLink8GB()
	if eight.Links != 8 || eight.CapacityGB != 8 {
		t.Errorf("8Link preset: %+v", eight)
	}
	if eight.QueueDepth != four.QueueDepth || eight.XbarDepth != four.XbarDepth {
		t.Error("presets must share queue structure (paper attributes identical low-thread results to it)")
	}
}

func TestStringer(t *testing.T) {
	if got := FourLink4GB().String(); got != "4Link-4GB" {
		t.Errorf("String() = %q", got)
	}
	if got := EightLink8GB().String(); got != "8Link-8GB" {
		t.Errorf("String() = %q", got)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"links", func(c *Config) { c.Links = 6 }, ErrBadLinks},
		{"capacity", func(c *Config) { c.CapacityGB = 3 }, ErrBadCapacity},
		{"vaults", func(c *Config) { c.Vaults = 24 }, ErrBadVaults},
		{"banks", func(c *Config) { c.BanksPerVault = 4 }, ErrBadBanks},
		{"drams", func(c *Config) { c.DRAMsPerBank = 0 }, ErrBadDRAMs},
		{"queue", func(c *Config) { c.QueueDepth = 0 }, ErrBadQueue},
		{"xbar", func(c *Config) { c.XbarDepth = MaxQueueDepth + 1 }, ErrBadQueue},
		{"link depth", func(c *Config) { c.LinkDepth = -1 }, ErrBadQueue},
		{"block", func(c *Config) { c.MaxBlockSize = 48 }, ErrBadBlockSize},
		{"latency", func(c *Config) { c.BankLatencyCycles = -1 }, ErrBadLatency},
		{"fault period 1", func(c *Config) { c.LinkFaultPeriod = 1 }, ErrBadLatency},
		{"fault period negative", func(c *Config) { c.LinkFaultPeriod = -2 }, ErrBadLatency},
		{"retry cycles", func(c *Config) { c.LinkFaultPeriod = 4; c.LinkRetryCycles = 0 }, ErrBadLatency},
	}
	for _, tc := range cases {
		cfg := FourLink4GB()
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
	var zero Config
	if zero.Validate() == nil {
		t.Error("zero Config validated")
	}
}

func TestDerivedGeometry(t *testing.T) {
	cfg := FourLink4GB()
	if cfg.Quads() != 4 {
		t.Errorf("Quads() = %d", cfg.Quads())
	}
	if cfg.VaultsPerQuad() != 8 {
		t.Errorf("VaultsPerQuad() = %d", cfg.VaultsPerQuad())
	}
	if cfg.CapacityBytes() != 4<<30 {
		t.Errorf("CapacityBytes() = %d", cfg.CapacityBytes())
	}
	// 4 GB / 32 vaults / 16 banks = 8 MB banks.
	if cfg.BankBytes() != 8<<20 {
		t.Errorf("BankBytes() = %d", cfg.BankBytes())
	}
	if cfg.VaultBits() != 5 || cfg.BankBits() != 4 || cfg.OffsetBits() != 6 {
		t.Errorf("bit widths: vault=%d bank=%d offset=%d", cfg.VaultBits(), cfg.BankBits(), cfg.OffsetBits())
	}

	eight := EightLink8GB()
	if eight.Quads() != 8 || eight.VaultsPerQuad() != 4 {
		t.Errorf("8Link geometry: quads=%d vpq=%d", eight.Quads(), eight.VaultsPerQuad())
	}
}
