// Package config defines and validates simulated HMC device
// configurations.
//
// The constraints mirror the original simulator's initialization checks:
// Gen2 devices expose 4 or 8 links, 2/4/8 GB of capacity, 16 or 32 vaults
// organized into one quadrant per link, 8 or 16 banks per vault, and a
// maximum request block size of 32..256 bytes. The paper's evaluation
// (§V-B) uses two presets — 4Link-4GB and 8Link-8GB — with a vault request
// queue of 64 slots and a logic-layer crossbar queue of 128 slots.
package config

import (
	"errors"
	"fmt"
	"math/bits"
)

// Architected limits.
const (
	// MaxDevs is the maximum number of chained devices (3-bit CUB field).
	MaxDevs = 8
	// MaxQueueDepth bounds any simulated queue depth.
	MaxQueueDepth = 65536
)

// Validation errors.
var (
	ErrBadLinks     = errors.New("config: links must be 4 or 8")
	ErrBadCapacity  = errors.New("config: capacity must be 2, 4 or 8 GB")
	ErrBadVaults    = errors.New("config: vaults must be 16 or 32")
	ErrBadBanks     = errors.New("config: banks per vault must be 8 or 16")
	ErrBadDRAMs     = errors.New("config: drams per bank must be positive")
	ErrBadQueue     = errors.New("config: queue depth out of range")
	ErrBadBlockSize = errors.New("config: max block size must be 32, 64, 128 or 256")
	ErrBadQuads     = errors.New("config: vaults must divide evenly into quads")
	ErrBadLatency   = errors.New("config: latencies must be non-negative")
)

// Config describes one simulated HMC device.
type Config struct {
	// Links is the number of host links (4 or 8). Gen2 devices associate
	// one quadrant of vaults with each link, so Quads() == Links.
	Links int
	// CapacityGB is the device capacity in gigabytes (2, 4 or 8).
	CapacityGB int
	// Vaults is the total number of vaults (16 or 32).
	Vaults int
	// BanksPerVault is the number of DRAM banks per vault (8 or 16).
	BanksPerVault int
	// DRAMsPerBank is the number of stacked DRAM dies a bank spans; the
	// Gen2 organization uses 20.
	DRAMsPerBank int
	// QueueDepth is the vault request queue depth in slots.
	QueueDepth int
	// XbarDepth is the logic-layer crossbar queue depth in slots.
	XbarDepth int
	// LinkDepth is the host-facing link queue depth in slots.
	LinkDepth int
	// MaxBlockSize is the maximum request block size in bytes (32..256);
	// it also sets the address-interleave granularity across vaults.
	MaxBlockSize int
	// BankLatencyCycles is how many additional cycles a bank remains
	// busy after accepting a request. Zero (the default) disables bank
	// timing entirely, matching the paper's abstract, timing-free cycle
	// model (§VII); positive values enable bank-conflict modeling.
	BankLatencyCycles int
	// LinkFlitsPerCycle is the per-link serialization bandwidth: the
	// number of FLITs one link can move between its queues and the
	// crossbar per cycle, per direction. It is the knob that makes the
	// 4Link and 8Link configurations diverge under hot-spot load — the
	// 4Link device "becomes overwhelmed with requests faster" (paper
	// §V-C) because the same burst crosses half as many links. The
	// default is calibrated so divergence onsets near 50 threads on the
	// 4Link device, matching the paper's observation.
	LinkFlitsPerCycle int
	// RowMissPenaltyCycles extends the bank-timing extension with an
	// open-page model: when bank timing is enabled (BankLatencyCycles >
	// 0), an access that hits the bank's open row costs the base bank
	// latency, while a different row pays this additional precharge +
	// activate penalty. Zero (the default) disables the page model.
	RowMissPenaltyCycles int
	// LinkFaultPeriod enables deterministic link-fault injection: every
	// Nth packet crossing a link arrives with a bad CRC and goes through
	// the HMC retry protocol (error abort, IRTRY, retransmit from the
	// retry buffer). Zero (the default) disables injection. Deterministic
	// injection keeps simulations reproducible.
	LinkFaultPeriod int
	// LinkRetryCycles is the cost of one retry sequence in cycles.
	LinkRetryCycles int
}

// Default queue/block parameters used by the paper's simulations (§V-B).
const (
	DefaultQueueDepth   = 64
	DefaultXbarDepth    = 128
	DefaultLinkDepth    = 64
	DefaultMaxBlockSize = 64
	DefaultDRAMsPerBank = 20
	DefaultBankLatency  = 0
	// DefaultLinkRetry is the cost of a link retry sequence: error abort,
	// IRTRY exchange and retransmission.
	DefaultLinkRetry = 8
	// DefaultLinkFlits (26 FLITs/cycle/direction) admits 13 two-FLIT
	// mutex packets per link per cycle: a 4-link device saturates its
	// links when a contention burst exceeds 52 packets, an 8-link device
	// at 104 — reproducing the paper's observation that the two
	// configurations are identical through 50 threads and diverge beyond
	// (§V-C).
	DefaultLinkFlits = 26
)

// FourLink4GB returns the paper's 4Link-4GB evaluation configuration.
func FourLink4GB() Config {
	return Config{
		Links:             4,
		CapacityGB:        4,
		Vaults:            32,
		BanksPerVault:     16,
		DRAMsPerBank:      DefaultDRAMsPerBank,
		QueueDepth:        DefaultQueueDepth,
		XbarDepth:         DefaultXbarDepth,
		LinkDepth:         DefaultLinkDepth,
		MaxBlockSize:      DefaultMaxBlockSize,
		BankLatencyCycles: DefaultBankLatency,
		LinkFlitsPerCycle: DefaultLinkFlits,
		LinkRetryCycles:   DefaultLinkRetry,
	}
}

// EightLink8GB returns the paper's 8Link-8GB evaluation configuration.
func EightLink8GB() Config {
	c := FourLink4GB()
	c.Links = 8
	c.CapacityGB = 8
	return c
}

// TwoGBDev returns a small 4-link 2GB development configuration useful in
// tests and examples.
func TwoGBDev() Config {
	c := FourLink4GB()
	c.CapacityGB = 2
	c.Vaults = 16
	c.BanksPerVault = 8
	return c
}

// ByName resolves a preset name, ignoring case and any '-', '_' or ' '
// separators: "4Link-4GB", "4link-4gb" and "4link4gb" all name
// FourLink4GB. The names are 4link4gb, 8link8gb and 2gbdev (also 2gb).
func ByName(name string) (Config, error) {
	key := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'A' && c <= 'Z':
			key = append(key, c+'a'-'A')
		case c == '-' || c == '_' || c == ' ':
		default:
			key = append(key, c)
		}
	}
	switch string(key) {
	case "4link4gb":
		return FourLink4GB(), nil
	case "8link8gb":
		return EightLink8GB(), nil
	case "2gbdev", "2gb":
		return TwoGBDev(), nil
	}
	return Config{}, fmt.Errorf("config: unknown preset %q (want 4link4gb, 8link8gb or 2gbdev)", name)
}

// Validate checks every architected constraint. The zero Config is
// invalid.
func (c Config) Validate() error {
	if c.Links != 4 && c.Links != 8 {
		return fmt.Errorf("%w: got %d", ErrBadLinks, c.Links)
	}
	switch c.CapacityGB {
	case 2, 4, 8:
	default:
		return fmt.Errorf("%w: got %d", ErrBadCapacity, c.CapacityGB)
	}
	if c.Vaults != 16 && c.Vaults != 32 {
		return fmt.Errorf("%w: got %d", ErrBadVaults, c.Vaults)
	}
	if c.BanksPerVault != 8 && c.BanksPerVault != 16 {
		return fmt.Errorf("%w: got %d", ErrBadBanks, c.BanksPerVault)
	}
	if c.DRAMsPerBank <= 0 {
		return fmt.Errorf("%w: got %d", ErrBadDRAMs, c.DRAMsPerBank)
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"QueueDepth", c.QueueDepth},
		{"XbarDepth", c.XbarDepth},
		{"LinkDepth", c.LinkDepth},
	} {
		if d.v < 1 || d.v > MaxQueueDepth {
			return fmt.Errorf("%w: %s=%d", ErrBadQueue, d.name, d.v)
		}
	}
	switch c.MaxBlockSize {
	case 32, 64, 128, 256:
	default:
		return fmt.Errorf("%w: got %d", ErrBadBlockSize, c.MaxBlockSize)
	}
	if c.Vaults%c.Links != 0 {
		return fmt.Errorf("%w: %d vaults across %d quads", ErrBadQuads, c.Vaults, c.Links)
	}
	if c.BankLatencyCycles < 0 {
		return fmt.Errorf("%w: BankLatencyCycles=%d", ErrBadLatency, c.BankLatencyCycles)
	}
	if c.LinkFlitsPerCycle < 1 {
		return fmt.Errorf("%w: LinkFlitsPerCycle=%d", ErrBadLatency, c.LinkFlitsPerCycle)
	}
	// Period 1 would corrupt every retransmission too (livelock), so the
	// smallest meaningful period is 2.
	if c.RowMissPenaltyCycles < 0 {
		return fmt.Errorf("%w: RowMissPenaltyCycles=%d", ErrBadLatency, c.RowMissPenaltyCycles)
	}
	if c.LinkFaultPeriod < 0 || c.LinkFaultPeriod == 1 {
		return fmt.Errorf("%w: LinkFaultPeriod=%d (0 disables; minimum period is 2)", ErrBadLatency, c.LinkFaultPeriod)
	}
	if c.LinkFaultPeriod > 0 && c.LinkRetryCycles < 1 {
		return fmt.Errorf("%w: LinkRetryCycles=%d with fault injection on", ErrBadLatency, c.LinkRetryCycles)
	}
	return nil
}

// Quads returns the number of logic-layer quadrants (one per link).
func (c Config) Quads() int { return c.Links }

// VaultsPerQuad returns how many vaults each quadrant serves.
func (c Config) VaultsPerQuad() int { return c.Vaults / c.Quads() }

// CapacityBytes returns the device capacity in bytes.
func (c Config) CapacityBytes() uint64 { return uint64(c.CapacityGB) << 30 }

// BankBytes returns the capacity of one bank in bytes.
func (c Config) BankBytes() uint64 {
	return c.CapacityBytes() / uint64(c.Vaults) / uint64(c.BanksPerVault)
}

// VaultBits, BankBits and OffsetBits give the widths of the address
// sub-fields derived from the organization (all organization parameters
// are powers of two by construction).
func (c Config) VaultBits() int  { return bits.TrailingZeros(uint(c.Vaults)) }
func (c Config) BankBits() int   { return bits.TrailingZeros(uint(c.BanksPerVault)) }
func (c Config) OffsetBits() int { return bits.TrailingZeros(uint(c.MaxBlockSize)) }

// String renders the configuration in the paper's "<N>Link-<M>GB" style.
func (c Config) String() string {
	return fmt.Sprintf("%dLink-%dGB", c.Links, c.CapacityGB)
}
