package addr

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func mustMap(t *testing.T, cfg config.Config) *Map {
	t.Helper()
	m, err := NewMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	for _, cfg := range []config.Config{config.FourLink4GB(), config.EightLink8GB(), config.TwoGBDev()} {
		m := mustMap(t, cfg)
		for _, a := range []uint64{0, 1, 63, 64, 65, 4095, 1 << 20, m.Capacity() - 1, m.Capacity() / 2} {
			loc, err := m.Decode(a)
			if err != nil {
				t.Fatalf("%v: Decode(%#x): %v", cfg, a, err)
			}
			back, err := m.Encode(loc)
			if err != nil {
				t.Fatalf("%v: Encode(%+v): %v", cfg, loc, err)
			}
			if back != a {
				t.Errorf("%v: round trip %#x -> %+v -> %#x", cfg, a, loc, back)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	m := mustMap(t, config.FourLink4GB())
	f := func(a uint64) bool {
		a %= m.Capacity()
		loc, err := m.Decode(a)
		if err != nil {
			return false
		}
		back, err := m.Encode(loc)
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeMatchesDivision checks Decode and QuadOf against the address
// layout written out as divisions and remainders, on every preset.
func TestDecodeMatchesDivision(t *testing.T) {
	for _, cfg := range []config.Config{config.FourLink4GB(), config.EightLink8GB(), config.TwoGBDev()} {
		m := mustMap(t, cfg)
		vaultsPerQuad := cfg.Vaults / cfg.Links
		f := func(a uint64) bool {
			a %= m.Capacity()
			block := a / uint64(cfg.MaxBlockSize)
			vault := int(block % uint64(cfg.Vaults))
			rest := block / uint64(cfg.Vaults)
			row := rest / uint64(cfg.BanksPerVault)
			want := Location{
				Quad:        vault / vaultsPerQuad,
				Vault:       vault,
				VaultInQuad: vault % vaultsPerQuad,
				Bank:        int(rest % uint64(cfg.BanksPerVault)),
				DRAM:        int(row % uint64(cfg.DRAMsPerBank)),
				Row:         row,
				Offset:      a % uint64(cfg.MaxBlockSize),
			}
			loc, err := m.Decode(a)
			return err == nil && loc == want && m.QuadOf(a) == want.Quad
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}

func TestBlockInterleaveAcrossVaults(t *testing.T) {
	// Consecutive 64-byte blocks must land in consecutive vaults so that
	// stride-1 streams spread across the device.
	m := mustMap(t, config.FourLink4GB())
	for i := 0; i < 64; i++ {
		loc, err := m.Decode(uint64(i) * 64)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Vault != i%32 {
			t.Errorf("block %d: vault %d, want %d", i, loc.Vault, i%32)
		}
		if loc.Offset != 0 {
			t.Errorf("block %d: offset %d", i, loc.Offset)
		}
	}
	// Addresses within one block stay in one vault.
	for off := uint64(0); off < 64; off++ {
		loc, err := m.Decode(128 + off)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Vault != 2 || loc.Offset != off {
			t.Errorf("offset %d: %+v", off, loc)
		}
	}
}

func TestQuadrantAssignment(t *testing.T) {
	// 4Link: 32 vaults / 4 quads = 8 vaults per quad.
	m := mustMap(t, config.FourLink4GB())
	for v := 0; v < 32; v++ {
		a := uint64(v) * 64
		loc, err := m.Decode(a)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Quad != v/8 {
			t.Errorf("vault %d: quad %d, want %d", v, loc.Quad, v/8)
		}
		if loc.VaultInQuad != v%8 {
			t.Errorf("vault %d: vaultInQuad %d, want %d", v, loc.VaultInQuad, v%8)
		}
		if got := m.QuadOf(a); got != loc.Quad {
			t.Errorf("QuadOf(%#x) = %d, want %d", a, got, loc.Quad)
		}
		if got := m.VaultOf(a); got != v {
			t.Errorf("VaultOf(%#x) = %d, want %d", a, got, v)
		}
	}
	// 8Link: 32 vaults / 8 quads = 4 vaults per quad.
	m8 := mustMap(t, config.EightLink8GB())
	loc, err := m8.Decode(7 * 64)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Quad != 1 || loc.VaultInQuad != 3 {
		t.Errorf("8Link vault 7: %+v", loc)
	}
}

func TestBankField(t *testing.T) {
	m := mustMap(t, config.FourLink4GB())
	// Bank bits sit directly above the vault bits: stepping by
	// 64B * 32 vaults advances the bank.
	stride := uint64(64 * 32)
	for b := 0; b < 16; b++ {
		loc, err := m.Decode(uint64(b) * stride)
		if err != nil {
			t.Fatal(err)
		}
		if loc.Bank != b || loc.Vault != 0 {
			t.Errorf("bank step %d: %+v", b, loc)
		}
	}
	// Beyond the bank field the row advances.
	loc, err := m.Decode(stride * 16)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Bank != 0 || loc.Row != 1 {
		t.Errorf("row step: %+v", loc)
	}
}

func TestDRAMWithinRange(t *testing.T) {
	m := mustMap(t, config.FourLink4GB())
	for _, a := range []uint64{0, 1 << 12, 1 << 22, 1<<32 - 64, 3 << 30} {
		loc, err := m.Decode(a)
		if err != nil {
			t.Fatal(err)
		}
		if loc.DRAM < 0 || loc.DRAM >= config.DefaultDRAMsPerBank {
			t.Errorf("addr %#x: dram %d out of range", a, loc.DRAM)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	m := mustMap(t, config.FourLink4GB())
	if _, err := m.Decode(m.Capacity()); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Decode(capacity): %v", err)
	}
	if _, err := m.Encode(Location{Vault: 99}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Encode(bad vault): %v", err)
	}
	if _, err := m.Encode(Location{Row: 1 << 40}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Encode(huge row): %v", err)
	}
}

func TestNewMapRejectsBadConfig(t *testing.T) {
	var bad config.Config
	if _, err := NewMap(bad); err == nil {
		t.Error("NewMap accepted zero config")
	}
}

func TestBlockBase(t *testing.T) {
	m := mustMap(t, config.FourLink4GB())
	if got := m.BlockBase(0x1234); got != 0x1200 {
		t.Errorf("BlockBase(0x1234) = %#x, want 0x1200", got)
	}
}

func BenchmarkDecode(b *testing.B) {
	m, err := NewMap(config.FourLink4GB())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decode(uint64(i) % m.Capacity()); err != nil {
			b.Fatal(err)
		}
	}
}
