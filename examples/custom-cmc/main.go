// Custom CMC: authoring new memory-cube operations OUTSIDE the simulator
// and loading them at run time — the paper's central workflow (§IV). Two
// .cmc script files next to this program define a fetch-and-add and a
// ticket dispenser; neither exists anywhere in the simulator source.
//
// Run with: go run ./examples/custom-cmc
// (expects to run from the repository root so the ops/ paths resolve;
// pass an alternate directory as the first argument otherwise)
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	hmcsim "repro"
)

func main() {
	dir := "examples/custom-cmc/ops"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}

	s, err := hmcsim.New(hmcsim.FourLink4GB())
	if err != nil {
		log.Fatal(err)
	}

	// The dlopen moment: parse external .cmc files and bind them to their
	// command codes.
	var cmds []hmcsim.RqstCmd
	for _, file := range []string{"fetchadd64.cmc", "ticket.cmc"} {
		prog, err := hmcsim.LoadCMCScriptFile(filepath.Join(dir, file))
		if err != nil {
			log.Fatal(err)
		}
		if err := s.LoadCMCOp(prog); err != nil {
			log.Fatal(err)
		}
		d := prog.Register()
		fmt.Printf("loaded %-12s -> command code %d (%d-FLIT request, %d-FLIT response)\n",
			d.OpName, d.Cmd, d.RqstLen, d.RspLen)
		cmds = append(cmds, d.Rqst)
	}

	do := func(cmd hmcsim.RqstCmd, addr uint64, payload []uint64) []uint64 {
		r, err := hmcsim.Build(cmd, 0, addr, 1, 0, payload)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Send(0, r); err != nil {
			log.Fatal(err)
		}
		for {
			s.Clock()
			if rsp, ok := s.Recv(0); ok {
				return rsp.Payload
			}
		}
	}

	fmt.Println("\nfetchadd64 on a counter at 0x100:")
	for _, delta := range []uint64{5, 10, 100} {
		old := do(cmds[0], 0x100, []uint64{delta, 0})
		fmt.Printf("  fetchadd(%3d) -> old value %d\n", delta, old[0])
	}
	d, _ := s.Device(0)
	v, _ := d.Store().ReadUint64(0x100)
	fmt.Printf("  counter now %d\n", v)

	fmt.Println("\nticket dispenser at 0x200:")
	for i := 0; i < 4; i++ {
		out := do(cmds[1], 0x200, nil)
		fmt.Printf("  request %d -> ticket %d (now serving %d)\n", i, out[0], out[1])
	}
}
