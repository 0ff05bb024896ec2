// Package jtag implements the simulated JTAG access path to a device's
// register file, carried forward from the 1.0 simulator ("internal access
// to the device via a simulated JTAG API", paper §II).
//
// Beyond the convenience Read/Write API the package models an IEEE
// 1149.1-style test access port: a 4-bit instruction register selects
// IDCODE, register read/write or BYPASS, and data moves through a 64-bit
// data register one shift at a time. The bit-level path exists so host
// software stacks that drive real maintenance buses can be exercised
// against the simulator.
package jtag

import (
	"errors"
	"fmt"

	"repro/internal/device"
)

// Instruction is a TAP instruction-register value.
type Instruction uint8

// TAP instructions.
const (
	// InstrIDCODE selects the identification register (the device RVID).
	InstrIDCODE Instruction = 0x1
	// InstrRegSelect latches the target register index from the data
	// register.
	InstrRegSelect Instruction = 0x2
	// InstrRegRead loads the selected device register into the data
	// register for shifting out.
	InstrRegRead Instruction = 0x3
	// InstrRegWrite stores the shifted-in data register into the selected
	// device register on update.
	InstrRegWrite Instruction = 0x4
	// InstrBypass selects the single-bit bypass register.
	InstrBypass Instruction = 0xF
)

// Errors returned by the port.
var (
	// ErrBadInstruction reports an unknown IR value.
	ErrBadInstruction = errors.New("jtag: unknown instruction")
	// ErrNoDevice reports a port constructed without a device.
	ErrNoDevice = errors.New("jtag: no device attached")
)

// Port is a JTAG access port bound to one device.
type Port struct {
	dev *device.Device

	ir     Instruction
	dr     uint64
	drLen  int
	selReg device.Reg
}

// NewPort attaches a port to a device.
func NewPort(dev *device.Device) (*Port, error) {
	if dev == nil {
		return nil, ErrNoDevice
	}
	return &Port{dev: dev, ir: InstrBypass, drLen: 1}, nil
}

// --- Convenience word-level API (what simulation drivers normally use) ---

// ReadReg reads a device register directly.
func (p *Port) ReadReg(r device.Reg) (uint64, error) {
	return p.dev.Regs().Read(r)
}

// WriteReg writes a device register directly.
func (p *Port) WriteReg(r device.Reg, v uint64) error {
	return p.dev.Regs().Write(r, v)
}

// IDCODE returns the device identification word (RVID with the device ID
// in the top byte).
func (p *Port) IDCODE() uint64 {
	return device.RVIDValue | uint64(p.dev.ID)<<56
}

// --- Bit-level TAP model ---

// LoadIR latches a new instruction and prepares the data register.
func (p *Port) LoadIR(ir Instruction) error {
	switch ir {
	case InstrIDCODE:
		p.dr = p.IDCODE()
		p.drLen = 64
	case InstrRegSelect, InstrRegWrite:
		p.dr = 0
		p.drLen = 64
	case InstrRegRead:
		v, err := p.dev.Regs().Read(p.selReg)
		if err != nil {
			return err
		}
		p.dr = v
		p.drLen = 64
	case InstrBypass:
		p.dr = 0
		p.drLen = 1
	default:
		return fmt.Errorf("%w: %#x", ErrBadInstruction, uint8(ir))
	}
	p.ir = ir
	return nil
}

// ShiftDR clocks one bit through the data register: tdi enters at the
// most significant end and the least significant bit exits as tdo,
// matching LSB-first serial register chains.
func (p *Port) ShiftDR(tdi bool) (tdo bool) {
	tdo = p.dr&1 == 1
	p.dr >>= 1
	if tdi {
		p.dr |= 1 << (p.drLen - 1)
	}
	return tdo
}

// UpdateDR commits the shifted data register according to the current
// instruction: RegSelect latches the register index, RegWrite stores into
// the selected device register. Other instructions ignore the update.
func (p *Port) UpdateDR() error {
	switch p.ir {
	case InstrRegSelect:
		p.selReg = device.Reg(p.dr & 0xFF)
		return nil
	case InstrRegWrite:
		return p.dev.Regs().Write(p.selReg, p.dr)
	default:
		return nil
	}
}

// ShiftWord shifts a full 64-bit word through the data register and
// returns the word shifted out, LSB first.
func (p *Port) ShiftWord(in uint64) (out uint64) {
	for i := 0; i < 64; i++ {
		if p.ShiftDR(in>>i&1 == 1) {
			out |= 1 << i
		}
	}
	return out
}

// SelectedReg returns the register latched by the last RegSelect update.
func (p *Port) SelectedReg() device.Reg { return p.selReg }
