// Quickstart: bring up a 4Link-4GB device, perform a write, a read and an
// in-situ atomic increment, and inspect the device through JTAG.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	hmcsim "repro"
	"repro/internal/device"
	"repro/internal/hmccmd"
)

func main() {
	// A simulation context holds one or more devices; the paper's
	// 4Link-4GB evaluation configuration is a preset.
	s, err := hmcsim.New(hmcsim.FourLink4GB())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %v (%d vaults, %d banks/vault, %d-byte max block)\n",
		s.Config(), s.Config().Vaults, s.Config().BanksPerVault, s.Config().MaxBlockSize)

	// roundTrip pushes one request through the device and waits for its
	// response: Send -> Clock until Recv.
	roundTrip := func(r *hmcsim.Rqst) *hmcsim.Rsp {
		if err := s.Send(0, r); err != nil {
			log.Fatal(err)
		}
		for {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				return rsp
			}
		}
	}

	// Write 64 bytes.
	wr, err := hmcsim.Build(hmccmd.WR64, 0, 0x1000, 1, 0, []uint64{10, 20, 30, 40, 50, 60, 70, 80})
	if err != nil {
		log.Fatal(err)
	}
	start := s.Cycle()
	rsp := roundTrip(wr)
	fmt.Printf("WR64  @0x1000 -> %v in %d cycles\n", rsp.Cmd, s.Cycle()-start)

	// Read them back.
	rd, err := hmcsim.Build(hmccmd.RD64, 0, 0x1000, 2, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	start = s.Cycle()
	rsp = roundTrip(rd)
	fmt.Printf("RD64  @0x1000 -> %v in %d cycles, data %v\n", rsp.Cmd, s.Cycle()-start, rsp.Payload)

	// Atomic increment in the vault logic (no read-modify-write on the
	// host side): the Gen2 INC8 command.
	inc, err := hmcsim.Build(hmccmd.INC8, 0, 0x1000, 3, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	rsp = roundTrip(inc)
	rd2, _ := hmcsim.Build(hmccmd.RD16, 0, 0x1000, 4, 0, nil)
	rsp = roundTrip(rd2)
	fmt.Printf("INC8  @0x1000 -> word now %d\n", rsp.Payload[0])

	// Device introspection over the JTAG register path.
	port, err := s.JTAG(0)
	if err != nil {
		log.Fatal(err)
	}
	feat, err := port.ReadReg(device.RegFEAT)
	if err != nil {
		log.Fatal(err)
	}
	capGB, vaults, banks, links := device.DecodeFEAT(feat)
	fmt.Printf("JTAG FEAT register: %d GB, %d vaults, %d banks/vault, %d links\n",
		capGB, vaults, banks, links)

	d, _ := s.Device(0)
	st := d.Stats()
	fmt.Printf("device stats: %d cycles, %d responses, %d atomic ops\n",
		st.Cycles, st.Rsps, st.RqstsOfClass(hmccmd.ClassAtomic))
}
