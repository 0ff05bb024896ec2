package jtag

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/device"
)

func newPort(t *testing.T) *Port {
	t.Helper()
	dev, err := device.New(1, config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPort(dev)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPortNilDevice(t *testing.T) {
	if _, err := NewPort(nil); !errors.Is(err, ErrNoDevice) {
		t.Errorf("NewPort(nil): %v", err)
	}
}

func TestWordAPI(t *testing.T) {
	p := newPort(t)
	if err := p.WriteReg(device.RegEDR0, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadReg(device.RegEDR0)
	if err != nil || v != 0xDEAD {
		t.Fatalf("ReadReg = %#x, %v", v, err)
	}
	if err := p.WriteReg(device.RegFEAT, 1); err == nil {
		t.Error("write to read-only FEAT succeeded")
	}
}

func TestIDCODEEncodesDeviceID(t *testing.T) {
	p := newPort(t)
	id := p.IDCODE()
	if id>>56 != 1 {
		t.Errorf("device id byte = %d, want 1", id>>56)
	}
	if id&0xFFFFFF != device.RVIDValue&0xFFFFFF {
		t.Errorf("RVID bits = %#x", id&0xFFFFFF)
	}
}

func TestBitLevelIDCODE(t *testing.T) {
	p := newPort(t)
	if err := p.LoadIR(InstrIDCODE); err != nil {
		t.Fatal(err)
	}
	out := p.ShiftWord(0)
	if out != p.IDCODE() {
		t.Errorf("shifted IDCODE %#x, want %#x", out, p.IDCODE())
	}
}

func TestBitLevelRegisterWriteRead(t *testing.T) {
	p := newPort(t)
	// Select EDR1.
	if err := p.LoadIR(InstrRegSelect); err != nil {
		t.Fatal(err)
	}
	p.ShiftWord(uint64(device.RegEDR1))
	if err := p.UpdateDR(); err != nil {
		t.Fatal(err)
	}
	if p.SelectedReg() != device.RegEDR1 {
		t.Fatalf("selected %v", p.SelectedReg())
	}
	// Write a value.
	if err := p.LoadIR(InstrRegWrite); err != nil {
		t.Fatal(err)
	}
	p.ShiftWord(0xCAFEBABE)
	if err := p.UpdateDR(); err != nil {
		t.Fatal(err)
	}
	// Read it back through the bit path.
	if err := p.LoadIR(InstrRegRead); err != nil {
		t.Fatal(err)
	}
	if out := p.ShiftWord(0); out != 0xCAFEBABE {
		t.Errorf("read back %#x", out)
	}
	// And through the word path.
	if v, _ := p.ReadReg(device.RegEDR1); v != 0xCAFEBABE {
		t.Errorf("word read %#x", v)
	}
}

func TestBypassIsSingleBit(t *testing.T) {
	p := newPort(t)
	if err := p.LoadIR(InstrBypass); err != nil {
		t.Fatal(err)
	}
	// A bit shifted in appears on tdo one shift later.
	if tdo := p.ShiftDR(true); tdo {
		t.Error("bypass produced immediate tdo")
	}
	if tdo := p.ShiftDR(false); !tdo {
		t.Error("bypass lost the bit")
	}
}

func TestBadInstruction(t *testing.T) {
	p := newPort(t)
	if err := p.LoadIR(Instruction(0x9)); !errors.Is(err, ErrBadInstruction) {
		t.Errorf("LoadIR(0x9): %v", err)
	}
}

func TestRegWriteToReadOnlyFailsOnUpdate(t *testing.T) {
	p := newPort(t)
	_ = p.LoadIR(InstrRegSelect)
	p.ShiftWord(uint64(device.RegRVID))
	_ = p.UpdateDR()
	_ = p.LoadIR(InstrRegWrite)
	p.ShiftWord(42)
	if err := p.UpdateDR(); err == nil {
		t.Error("bit-level write to RVID succeeded")
	}
}
