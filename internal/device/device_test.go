package device

import (
	"errors"
	"testing"

	"repro/internal/cmc"
	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/trace"
)

func newDev(t *testing.T, cfg config.Config) *Device {
	t.Helper()
	d, err := New(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// roundTrip sends a request on link 0 and clocks until its response
// arrives, returning the response and the number of cycles taken.
func roundTrip(t *testing.T, d *Device, r *packet.Rqst) (*packet.Rsp, int) {
	t.Helper()
	if err := d.Send(0, r); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := 1; i <= 100; i++ {
		d.Clock()
		if rsp, ok := d.Recv(0); ok {
			return rsp, i
		}
	}
	t.Fatalf("no response after 100 cycles for %v", r.Cmd)
	return nil, 0
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	payload := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	wr := &packet.Rqst{Cmd: hmccmd.WR64, ADRS: 0x1000, TAG: 1, SLID: 0, Payload: payload}
	rsp, _ := roundTrip(t, d, wr)
	if rsp.Cmd != hmccmd.WrRS || rsp.ERRSTAT != ErrstatOK || rsp.TAG != 1 {
		t.Fatalf("write response %+v", rsp)
	}
	rd := &packet.Rqst{Cmd: hmccmd.RD64, ADRS: 0x1000, TAG: 2, SLID: 0}
	rsp, _ = roundTrip(t, d, rd)
	if rsp.Cmd != hmccmd.RdRS || rsp.TAG != 2 {
		t.Fatalf("read response %+v", rsp)
	}
	if len(rsp.Payload) != 8 {
		t.Fatalf("read payload %d words", len(rsp.Payload))
	}
	for i, w := range rsp.Payload {
		if w != payload[i] {
			t.Errorf("payload[%d] = %d, want %d", i, w, payload[i])
		}
	}
}

func TestUncongestedRoundTripIsThreeCycles(t *testing.T) {
	// The cycle model's anchor: Send -> vault (1), execute (2), response
	// -> host link (3). The paper's minimum lock+unlock sequence of 6
	// cycles (Table VI) follows from two such trips.
	d := newDev(t, config.FourLink4GB())
	r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 3}
	_, cycles := roundTrip(t, d, r)
	if cycles != 3 {
		t.Fatalf("uncongested round trip = %d cycles, want 3", cycles)
	}
}

func TestPostedWriteProducesNoResponse(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	r := &packet.Rqst{Cmd: hmccmd.PWR16, ADRS: 0x40, TAG: 4, Payload: []uint64{0xAA, 0xBB}}
	if err := d.Send(0, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Clock()
		if _, ok := d.Recv(0); ok {
			t.Fatal("posted write returned a response")
		}
	}
	v, err := d.Store().ReadUint64(0x40)
	if err != nil || v != 0xAA {
		t.Fatalf("posted write not applied: %#x, %v", v, err)
	}
}

func TestAtomicThroughPipeline(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	if err := d.Store().WriteUint64(0x80, 41); err != nil {
		t.Fatal(err)
	}
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.INC8, ADRS: 0x80, TAG: 5})
	if rsp.Cmd != hmccmd.WrRS || rsp.ERRSTAT != ErrstatOK {
		t.Fatalf("INC8 response %+v", rsp)
	}
	if v, _ := d.Store().ReadUint64(0x80); v != 42 {
		t.Fatalf("INC8 result %d", v)
	}
	// Fetch-style atomic returns original data.
	rsp, _ = roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.SWAP16, ADRS: 0x80, TAG: 6, Payload: []uint64{7, 8}})
	if rsp.Cmd != hmccmd.RdRS || rsp.Payload[0] != 42 {
		t.Fatalf("SWAP16 response %+v", rsp)
	}
}

func TestEQSetsDINV(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.EQ8, ADRS: 0, TAG: 7, Payload: []uint64{5, 0}})
	if !rsp.DINV {
		t.Error("EQ8 against zeroed memory with operand 5 should set DINV")
	}
	rsp, _ = roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.EQ8, ADRS: 0, TAG: 8, Payload: []uint64{0, 0}})
	if rsp.DINV {
		t.Error("EQ8 equal case set DINV")
	}
}

func TestBadAddressErrorResponse(t *testing.T) {
	d := newDev(t, config.FourLink4GB()) // 4 GB capacity
	r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 5 << 30, TAG: 9}
	rsp, _ := roundTrip(t, d, r)
	if rsp.Cmd != hmccmd.RspError || rsp.ERRSTAT != ErrstatBadAddr {
		t.Fatalf("OOB read response %+v", rsp)
	}
	if !rsp.DINV {
		t.Error("error response without DINV")
	}
}

func TestBlockSizeViolation(t *testing.T) {
	d := newDev(t, config.FourLink4GB()) // 64-byte max block
	// RD128 exceeds the 64-byte maximum block size.
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD128, ADRS: 0, TAG: 10})
	if rsp.Cmd != hmccmd.RspError || rsp.ERRSTAT != ErrstatBlockViolation {
		t.Fatalf("oversized read response %+v", rsp)
	}
	// A 16-byte read crossing a 64-byte block boundary.
	rsp, _ = roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 56, TAG: 11})
	if rsp.ERRSTAT != ErrstatBlockViolation {
		t.Fatalf("boundary-crossing read response %+v", rsp)
	}
	// With a 256-byte block configuration RD128 is legal.
	cfg := config.FourLink4GB()
	cfg.MaxBlockSize = 256
	d2 := newDev(t, cfg)
	rsp, _ = roundTrip(t, d2, &packet.Rqst{Cmd: hmccmd.RD128, ADRS: 0, TAG: 12})
	if rsp.Cmd != hmccmd.RdRS || len(rsp.Payload) != 16 {
		t.Fatalf("RD128 on 256B-block device: %+v", rsp)
	}
}

func TestInactiveCMCRejected(t *testing.T) {
	// Paper §IV-C2: packets for non-active CMC commands return an error.
	d := newDev(t, config.FourLink4GB())
	r := &packet.Rqst{Cmd: hmccmd.CMC125, LNG: 2, ADRS: 0x40, TAG: 13, Payload: []uint64{1, 0}}
	rsp, _ := roundTrip(t, d, r)
	if rsp.Cmd != hmccmd.RspError || rsp.ERRSTAT != ErrstatInactiveCMC {
		t.Fatalf("inactive CMC response %+v", rsp)
	}
}

func TestModeRegisterAccess(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	// Write GC via MD_WR.
	wr := &packet.Rqst{Cmd: hmccmd.MDWR, ADRS: uint64(RegGC), TAG: 14, Payload: []uint64{0xBEEF, 0}}
	rsp, _ := roundTrip(t, d, wr)
	if rsp.Cmd != hmccmd.MdWrRS {
		t.Fatalf("MD_WR response %+v", rsp)
	}
	// Read it back via MD_RD.
	rd := &packet.Rqst{Cmd: hmccmd.MDRD, ADRS: uint64(RegGC), TAG: 15}
	rsp, _ = roundTrip(t, d, rd)
	if rsp.Cmd != hmccmd.MdRdRS || rsp.Payload[0] != 0xBEEF {
		t.Fatalf("MD_RD response %+v", rsp)
	}
	// FEAT register encodes the configuration.
	rsp, _ = roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.MDRD, ADRS: uint64(RegFEAT), TAG: 16})
	capGB, vaults, banks, links := DecodeFEAT(rsp.Payload[0])
	if capGB != 4 || vaults != 32 || banks != 16 || links != 4 {
		t.Fatalf("FEAT = (%d,%d,%d,%d)", capGB, vaults, banks, links)
	}
	// Writing a read-only register errors.
	rsp, _ = roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.MDWR, ADRS: uint64(RegFEAT), TAG: 17, Payload: []uint64{1, 0}})
	if rsp.Cmd != hmccmd.RspError {
		t.Fatalf("MD_WR to FEAT: %+v", rsp)
	}
}

func TestFlowPacketsConsumedSilently(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.PRET, TAG: 18}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d.Clock()
		if _, ok := d.Recv(0); ok {
			t.Fatal("flow packet generated a response")
		}
	}
	if got := d.Stats().RqstsOfClass(hmccmd.ClassFlow); got != 1 {
		t.Errorf("flow rqsts = %d", got)
	}
}

func TestSendStall(t *testing.T) {
	cfg := config.FourLink4GB()
	cfg.LinkDepth = 2
	d := newDev(t, cfg)
	for i := 0; i < 2; i++ {
		if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, TAG: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, TAG: 99})
	if !errors.Is(err, ErrStall) {
		t.Fatalf("overfull send: %v", err)
	}
	if d.Stats().SendStalls != 1 {
		t.Errorf("SendStalls = %d", d.Stats().SendStalls)
	}
	// After a clock the queue drains and sends succeed again.
	d.Clock()
	if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, TAG: 100}); err != nil {
		t.Errorf("send after drain: %v", err)
	}
}

func TestSendValidation(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	if err := d.Send(7, &packet.Rqst{Cmd: hmccmd.RD16}); !errors.Is(err, ErrBadLink) {
		t.Errorf("bad link: %v", err)
	}
	if err := d.Send(0, &packet.Rqst{Cmd: hmccmd.RD16, CUB: 3}); !errors.Is(err, ErrWrongCUB) {
		t.Errorf("wrong CUB: %v", err)
	}
}

func TestResponseReturnsOnIngressLink(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: 0, TAG: 20, SLID: 2}
	if err := d.Send(2, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Clock()
		if _, ok := d.Recv(0); ok {
			t.Fatal("response on wrong link 0")
		}
		if rsp, ok := d.Recv(2); ok {
			if rsp.SLID != 2 {
				t.Fatalf("SLID = %d", rsp.SLID)
			}
			return
		}
	}
	t.Fatal("no response on link 2")
}

func TestVaultRouting(t *testing.T) {
	// Requests to different vaults execute concurrently: N requests to N
	// distinct vaults all complete in the uncongested 3 cycles.
	d := newDev(t, config.FourLink4GB())
	const n = 8
	for i := 0; i < n; i++ {
		r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 64, TAG: uint16(i)}
		if err := d.Send(0, r); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for i := 0; i < 3; i++ {
		d.Clock()
		for {
			if _, ok := d.Recv(0); !ok {
				break
			}
			got++
		}
	}
	if got != n {
		t.Fatalf("%d responses in 3 cycles, want %d", got, n)
	}
	// Distinct vaults serviced the requests.
	busy := 0
	for i := 0; i < d.Cfg.Vaults; i++ {
		v, err := d.Vault(i)
		if err != nil {
			t.Fatal(err)
		}
		if v.RqstStats().Pops > 0 {
			busy++
		}
	}
	if busy != n {
		t.Errorf("%d vaults serviced requests, want %d", busy, n)
	}
}

func TestBankConflictModeling(t *testing.T) {
	// With BankLatencyCycles > 0, two requests to the same bank serialize
	// and the conflict is counted; with the default 0 they do not.
	cfg := config.FourLink4GB()
	cfg.BankLatencyCycles = 2
	d := newDev(t, cfg)
	// Same vault, same bank: consecutive addresses within one block.
	for i := 0; i < 2; i++ {
		r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i) * 16, TAG: uint16(i)}
		if err := d.Send(0, r); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	cycles := 0
	for cycles = 1; cycles <= 20 && got < 2; cycles++ {
		d.Clock()
		for {
			if _, ok := d.Recv(0); !ok {
				break
			}
			got++
		}
	}
	if got != 2 {
		t.Fatal("responses missing")
	}
	if d.Stats().BankConflicts == 0 {
		t.Error("no bank conflicts recorded with BankLatencyCycles=2")
	}
	if cycles <= 4 {
		t.Errorf("conflicting requests completed in %d cycles; expected serialization", cycles)
	}
}

func TestCMCThroughPipeline(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	rec := trace.NewRecorder(trace.LevelCMC)
	d.Observe(TraceSink(d, rec))
	if err := d.CMC().Load(testLockOp{}); err != nil {
		t.Fatal(err)
	}
	r := &packet.Rqst{Cmd: hmccmd.CMC125, LNG: 2, ADRS: 0x40, TAG: 21, Payload: []uint64{7, 0}}
	rsp, _ := roundTrip(t, d, r)
	if rsp.Cmd != hmccmd.WrRS {
		t.Fatalf("CMC response %+v", rsp)
	}
	if rsp.Payload[0] != 1 {
		t.Fatalf("lock returned %d", rsp.Payload[0])
	}
	blk, _ := d.Store().ReadBlock(0x40)
	if blk.Lo != 1 || blk.Hi != 7 {
		t.Fatalf("lock state %+v", blk)
	}
	// The trace carries the op's human-readable name (paper §IV-A).
	evs := rec.OfKind(trace.LevelCMC)
	if len(evs) != 1 || evs[0].Cmd != "test_lock" {
		t.Fatalf("CMC trace events %+v", evs)
	}
}

// testLockOp is a minimal lock-like CMC op for pipeline tests, matching
// the paper's hmc_lock semantics on CMC125.
type testLockOp struct{}

func (testLockOp) Register() cmc.Descriptor {
	return cmc.Descriptor{
		OpName:  "test_lock",
		Rqst:    hmccmd.CMC125,
		Cmd:     125,
		RqstLen: 2,
		RspLen:  2,
		RspCmd:  hmccmd.WrRS,
	}
}

func (testLockOp) Str() string { return "test_lock" }

func (testLockOp) Execute(ctx *cmc.ExecContext) error {
	base := ctx.Addr &^ 0xF
	blk, err := ctx.Mem.ReadBlock(base)
	if err != nil {
		return err
	}
	if blk.Lo == 0 {
		blk.Lo, blk.Hi = 1, ctx.RqstPayload[0]
		if err := ctx.Mem.WriteBlock(base, blk); err != nil {
			return err
		}
		ctx.RspPayload[0] = 1
	} else {
		ctx.RspPayload[0] = 0
	}
	return nil
}

// testFailOp always fails, to exercise the CMC fault path.
type testFailOp struct{}

func (testFailOp) Register() cmc.Descriptor {
	return cmc.Descriptor{
		OpName: "test_fail", Rqst: hmccmd.CMC56, Cmd: 56,
		RqstLen: 1, RspLen: 1, RspCmd: hmccmd.WrRS,
	}
}
func (testFailOp) Str() string                        { return "test_fail" }
func (testFailOp) Execute(ctx *cmc.ExecContext) error { return errors.New("boom") }

func TestCMCFaultProducesErrorResponse(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	if err := d.CMC().Load(testFailOp{}); err != nil {
		t.Fatal(err)
	}
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.CMC56, TAG: 22})
	if rsp.Cmd != hmccmd.RspError || rsp.ERRSTAT != ErrstatCMCFault {
		t.Fatalf("CMC fault response %+v", rsp)
	}
	// The device error register latches the fault.
	v, err := d.Regs().Read(RegERR)
	if err != nil || v&ErrBitCMCFault == 0 {
		t.Errorf("ERR register %#x, %v", v, err)
	}
}

func TestCustomResponseCodeThroughPipeline(t *testing.T) {
	d := newDev(t, config.FourLink4GB())
	if err := d.CMC().Load(testCustomRspOp{}); err != nil {
		t.Fatal(err)
	}
	rsp, _ := roundTrip(t, d, &packet.Rqst{Cmd: hmccmd.CMC57, TAG: 23})
	if rsp.Cmd != hmccmd.RspCMC || rsp.CmdCode != 0xC7 {
		t.Fatalf("custom response %+v", rsp)
	}
}

// testCustomRspOp exercises the RSP_CMC custom response command path.
type testCustomRspOp struct{}

func (testCustomRspOp) Register() cmc.Descriptor {
	return cmc.Descriptor{
		OpName: "test_custom_rsp", Rqst: hmccmd.CMC57, Cmd: 57,
		RqstLen: 1, RspLen: 1, RspCmd: hmccmd.RspCMC, RspCmdCode: 0xC7,
	}
}
func (testCustomRspOp) Str() string                    { return "test_custom_rsp" }
func (testCustomRspOp) Execute(*cmc.ExecContext) error { return nil }

func TestDeterminism(t *testing.T) {
	// Identical request sequences produce identical cycle-by-cycle
	// behaviour (the paper's no-simulation-perturbation requirement).
	run := func() []int {
		d := newDev(t, config.FourLink4GB())
		var latencies []int
		for i := 0; i < 20; i++ {
			r := &packet.Rqst{Cmd: hmccmd.RD16, ADRS: uint64(i%4) * 16, TAG: uint16(i)}
			_, cycles := roundTrip(t, d, r)
			latencies = append(latencies, cycles)
		}
		return latencies
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, config.Config{}); err == nil {
		t.Error("New accepted zero config")
	}
	if _, err := New(9, config.FourLink4GB()); err == nil {
		t.Error("New accepted out-of-range device id")
	}
}

// TestSendAdoptsRequest pins the adoption contract: mutating the caller's
// request (and payload) immediately after Send must not affect the
// packet the device executes.
func TestSendAdoptsRequest(t *testing.T) {
	d, err := New(0, config.FourLink4GB())
	if err != nil {
		t.Fatal(err)
	}
	r := &packet.Rqst{Cmd: hmccmd.WR16, ADRS: 0x300, TAG: 5, Payload: []uint64{42, 43}}
	if err := d.Send(0, r); err != nil {
		t.Fatal(err)
	}
	// Scribble over everything the device might still be referencing.
	r.ADRS = 0x9990
	r.TAG = 77
	r.Payload[0], r.Payload[1] = 0, 0
	var rsp *packet.Rsp
	for c := 0; c < 16 && rsp == nil; c++ {
		d.Clock()
		rsp, _ = d.Recv(0)
	}
	if rsp == nil || rsp.TAG != 5 || rsp.ERRSTAT != 0 {
		t.Fatalf("write response: %+v", rsp)
	}
	v, err := d.Store().ReadUint64(0x300)
	if err != nil || v != 42 {
		t.Fatalf("memory at 0x300 = %d, %v; want 42", v, err)
	}
}
