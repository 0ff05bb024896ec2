// Package addr implements the HMC physical address decomposition.
//
// The device interleaves the physical address space across vaults at the
// maximum-block-size granularity, so consecutive blocks land in
// consecutive vaults and sequential streams spread across the whole
// device. Above the vault field the address selects the bank within the
// vault, and the remainder selects the DRAM die and row:
//
//	+-----------------------------+--------+---------+----------+
//	|        row / dram           |  bank  |  vault  |  offset  |
//	+-----------------------------+--------+---------+----------+
//	                               bankBits  vaultBits offsetBits
//
// The quadrant is derived from the vault: each link owns one quadrant of
// Vaults/Links consecutive vaults.
package addr

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/config"
)

// ErrOutOfRange reports an address beyond the device capacity.
var ErrOutOfRange = errors.New("addr: address out of device range")

// Location is a fully decoded device coordinate.
type Location struct {
	// Quad is the logic-layer quadrant (0..Links-1).
	Quad int
	// Vault is the device-global vault index (0..Vaults-1).
	Vault int
	// VaultInQuad is the vault index within its quadrant.
	VaultInQuad int
	// Bank is the bank within the vault.
	Bank int
	// DRAM is the stacked DRAM die the row maps onto.
	DRAM int
	// Row is the row within the bank address space.
	Row uint64
	// Offset is the byte offset within the interleave block.
	Offset uint64
}

// Map decodes addresses for one device configuration.
type Map struct {
	offsetBits int
	vaultBits  int
	bankBits   int
	// quadBits is log2 of the vaults per quadrant, which Validate makes
	// 2, 4 or 8: Decode splits the vault index with a shift and a mask.
	quadBits     int
	dramsPerBank uint64
	capacity     uint64
}

// NewMap builds the address map for a validated configuration.
func NewMap(cfg config.Config) (*Map, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Map{
		offsetBits:   cfg.OffsetBits(),
		vaultBits:    cfg.VaultBits(),
		bankBits:     cfg.BankBits(),
		quadBits:     bits.TrailingZeros(uint(cfg.VaultsPerQuad())),
		dramsPerBank: uint64(cfg.DRAMsPerBank),
		capacity:     cfg.CapacityBytes(),
	}, nil
}

// Capacity returns the mapped capacity in bytes.
func (m *Map) Capacity() uint64 { return m.capacity }

// Decode splits a physical address into its device coordinate.
func (m *Map) Decode(a uint64) (Location, error) {
	if a >= m.capacity {
		return Location{}, fmt.Errorf("%w: %#x >= %#x", ErrOutOfRange, a, m.capacity)
	}
	offset := a & (1<<m.offsetBits - 1)
	rest := a >> m.offsetBits
	vault := int(rest & (1<<m.vaultBits - 1))
	rest >>= m.vaultBits
	bank := int(rest & (1<<m.bankBits - 1))
	row := rest >> m.bankBits
	return Location{
		Quad:        vault >> m.quadBits,
		Vault:       vault,
		VaultInQuad: vault & (1<<m.quadBits - 1),
		Bank:        bank,
		DRAM:        int(row % m.dramsPerBank),
		Row:         row,
		Offset:      offset,
	}, nil
}

// Encode reassembles a physical address from a coordinate. It is the
// inverse of Decode.
func (m *Map) Encode(loc Location) (uint64, error) {
	if loc.Vault < 0 || loc.Vault >= 1<<m.vaultBits ||
		loc.Bank < 0 || loc.Bank >= 1<<m.bankBits ||
		loc.Offset >= 1<<m.offsetBits {
		return 0, fmt.Errorf("%w: coordinate %+v", ErrOutOfRange, loc)
	}
	a := loc.Row
	a = a<<m.bankBits | uint64(loc.Bank)
	a = a<<m.vaultBits | uint64(loc.Vault)
	a = a<<m.offsetBits | loc.Offset
	if a >= m.capacity {
		return 0, fmt.Errorf("%w: coordinate %+v maps to %#x", ErrOutOfRange, loc, a)
	}
	return a, nil
}

// BlockBase returns the base address of the interleave block containing a.
func (m *Map) BlockBase(a uint64) uint64 {
	return a &^ (1<<m.offsetBits - 1)
}

// QuadOf returns the quadrant servicing address a; it is a cheaper path
// than a full Decode for the crossbar routing hot path.
func (m *Map) QuadOf(a uint64) int {
	return m.VaultOf(a) >> m.quadBits
}

// VaultOf returns the device-global vault index servicing address a.
func (m *Map) VaultOf(a uint64) int {
	return int(a >> m.offsetBits & (1<<m.vaultBits - 1))
}
