// Diagnostics: the simulator's introspection surfaces — the JTAG
// register path carried forward from HMC-Sim 1.0 (bit-level TAP
// included), CRC-fault injection through the link retry protocol, and
// per-device utilization reports.
//
// Run with: go run ./examples/diagnostics
package main

import (
	"fmt"
	"log"

	hmcsim "repro"
	"repro/internal/device"
	"repro/internal/hmccmd"
	"repro/internal/jtag"
)

func main() {
	// A device with deterministic link faults: every 6th packet crossing
	// a link arrives with a bad CRC and is retransmitted.
	cfg := hmcsim.FourLink4GB()
	cfg.LinkFaultPeriod = 6
	s, err := hmcsim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- JTAG: word-level and bit-level access ---
	port, err := s.JTAG(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IDCODE: %#x\n", port.IDCODE())

	// Bit-level TAP sequence: select EDR0, shift a value in, read back.
	if err := port.LoadIR(jtag.InstrRegSelect); err != nil {
		log.Fatal(err)
	}
	port.ShiftWord(uint64(device.RegEDR0))
	if err := port.UpdateDR(); err != nil {
		log.Fatal(err)
	}
	if err := port.LoadIR(jtag.InstrRegWrite); err != nil {
		log.Fatal(err)
	}
	port.ShiftWord(0xFEEDFACE)
	if err := port.UpdateDR(); err != nil {
		log.Fatal(err)
	}
	v, err := port.ReadReg(device.RegEDR0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EDR0 after bit-level TAP write: %#x\n", v)

	// --- Drive traffic through the faulty links ---
	const n = 48
	for i := 0; i < n; i++ {
		r, err := hmcsim.Build(hmccmd.RD64, 0, uint64(i)*64, uint16(i), i%4, nil)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Send(i%4, r); err != nil {
			log.Fatal(err)
		}
	}
	got := 0
	for c := 0; c < 500 && got < n; c++ {
		s.Clock()
		for link := 0; link < 4; link++ {
			for {
				if _, ok := s.Recv(link); !ok {
					break
				}
				got++
			}
		}
	}
	fmt.Printf("\n%d/%d reads completed despite CRC faults (cycle %d)\n", got, n, s.Cycle())

	// --- Utilization report ---
	d, _ := s.Device(0)
	fmt.Println()
	fmt.Print(d.BuildReport())
}
