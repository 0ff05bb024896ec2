package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/hmccmd"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The original HMC-Sim drove devices from memory traces
// (hmcsim_build_memtrace); this file carries that capability forward: a
// line-oriented trace format and its parser, deterministic generators
// for the pathological patterns of the early results (stride-1 and
// random), and an agent that replays a trace slice through the device.
//
// Trace format, one request per line ('#' starts a comment):
//
//	RD <addr> <bytes>     # architected read: 16..128 bytes in steps of 16, or 256
//	WR <addr> <bytes>     # architected write of the same sizes
//	<MNEMONIC> <addr>     # any atomic, e.g. "INC8 0x40", "CASEQ8 0x80"
//
// The parser resolves each line to its request command, so a size with
// no architected command is a malformed line.

// ErrBadTrace reports a malformed trace line.
var ErrBadTrace = errors.New("workload: malformed trace line")

// ReplayOp is one parsed trace request.
type ReplayOp struct {
	// Cmd is the request command: an architected read, write or atomic.
	Cmd hmccmd.Rqst
	// Addr is the target address.
	Addr uint64
}

// ParseTrace reads a request trace.
func ParseTrace(r io.Reader) ([]ReplayOp, error) {
	var ops []ReplayOp
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		op, err := parseTraceLine(fields)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

func parseTraceLine(fields []string) (ReplayOp, error) {
	mn := strings.ToUpper(fields[0])
	var cmd hmccmd.Rqst
	var ok bool
	switch mn {
	case "RD", "WR":
		if len(fields) != 3 {
			return ReplayOp{}, fmt.Errorf("%w: %s needs addr and bytes", ErrBadTrace, mn)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return ReplayOp{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		class := hmccmd.ClassRead
		if mn == "WR" {
			class = hmccmd.ClassWrite
		}
		cmd, ok = findCommand(func(i *hmccmd.Info) bool { return i.Class == class && int(i.DataBytes) == n })
		if !ok {
			return ReplayOp{}, fmt.Errorf("%w: no %s of %d bytes", ErrBadTrace, mn, n)
		}
	default:
		if len(fields) != 2 {
			return ReplayOp{}, fmt.Errorf("%w: %s needs an address", ErrBadTrace, mn)
		}
		cmd, ok = findCommand(func(i *hmccmd.Info) bool { return i.Name == mn })
		if !ok {
			return ReplayOp{}, fmt.Errorf("%w: unknown command %q", ErrBadTrace, mn)
		}
		if class := cmd.InfoRef().Class; class != hmccmd.ClassAtomic && class != hmccmd.ClassPostedAtomic {
			return ReplayOp{}, fmt.Errorf("%w: %s is not replayable here (use RD/WR)", ErrBadTrace, mn)
		}
	}
	addr, err := strconv.ParseUint(fields[1], 0, 64)
	if err != nil {
		return ReplayOp{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return ReplayOp{Cmd: cmd, Addr: addr}, nil
}

// findCommand returns the first architected command whose table entry
// matches.
func findCommand(match func(*hmccmd.Info) bool) (hmccmd.Rqst, bool) {
	for _, cmd := range hmccmd.Architected() {
		if match(cmd.InfoRef()) {
			return cmd, true
		}
	}
	return 0, false
}

// GenerateStrideTrace produces n sequential 64-byte reads from base — the
// STREAM-like pathological pattern of the early HMC-Sim results.
func GenerateStrideTrace(base uint64, n int) []ReplayOp {
	ops := make([]ReplayOp, n)
	for i := range ops {
		ops[i] = ReplayOp{Cmd: hmccmd.RD64, Addr: base + uint64(i)*64}
	}
	return ops
}

// GenerateRandomTrace produces n random 16-byte reads/writes within
// [base, base+span) — the RandomAccess-like pattern.
func GenerateRandomTrace(base, span uint64, n int, seed int64) []ReplayOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]ReplayOp, n)
	for i := range ops {
		addr := base + uint64(rng.Int63n(int64(span/16)))*16
		cmd := hmccmd.RD16
		if rng.Intn(2) == 1 {
			cmd = hmccmd.WR16
		}
		ops[i] = ReplayOp{Cmd: cmd, Addr: addr}
	}
	return ops
}

// ReplayAgent replays a slice of trace operations in order.
type ReplayAgent struct {
	Ops []ReplayOp
	cur int
	// wait marks an outstanding request.
	wait bool
	// issuedAt timestamps the outstanding request for latency tracking.
	issuedAt uint64
	// Latency aggregates per-op round-trip latencies.
	Latency stats.Summary

	scratch sim.ReqScratch
}

// Next implements Agent.
func (a *ReplayAgent) Next(cycle uint64) *packet.Rqst {
	if a.wait || a.cur >= len(a.Ops) {
		return nil
	}
	op := a.Ops[a.cur]
	a.cur++
	a.issuedAt = cycle
	// Traces carry no data: writes and atomic operands are zeros.
	pl := a.scratch.Payload(2 * (int(op.Cmd.InfoRef().RqstFlits) - 1))
	clear(pl)
	r, err := a.scratch.Build(op.Cmd, 0, op.Addr, 0, 0, pl)
	if err != nil {
		panic(err)
	}
	if !r.Cmd.Posted() {
		a.wait = true
	}
	return r
}

// Complete implements Agent.
func (a *ReplayAgent) Complete(rsp *packet.Rsp, cycle uint64) error {
	if rsp != nil && rsp.Cmd == hmccmd.RspError {
		return fmt.Errorf("replay op failed with ERRSTAT %#x", rsp.ERRSTAT)
	}
	a.Latency.Add(cycle - a.issuedAt)
	a.wait = false
	return nil
}

// Done implements Agent.
func (a *ReplayAgent) Done() bool { return !a.wait && a.cur >= len(a.Ops) }

// ReplayResult summarizes one replay run.
type ReplayResult struct {
	Threads int
	Ops     int
	Cycles  uint64
	// Latency aggregates per-request round trips across all agents.
	Latency stats.Summary
	// OpsPerCycle is the achieved request throughput.
	OpsPerCycle float64
}

// RunReplay splits a trace round-robin across threads agents and replays
// it against a fresh simulation of cfg.
func RunReplay(cfg config.Config, threads int, ops []ReplayOp, opts ...sim.Option) (ReplayResult, error) {
	ss, err := NewSession(cfg, opts...)
	if err != nil {
		return ReplayResult{}, err
	}
	return ss.Replay(threads, ops)
}

// Replay is the Session form of RunReplay. The per-agent op slices are
// rebuilt each run (they are data, not scratch); the engine state reuses
// session scratch.
func (ss *Session) Replay(threads int, ops []ReplayOp) (ReplayResult, error) {
	if len(ops) == 0 {
		return ReplayResult{}, fmt.Errorf("workload: replay needs a non-empty trace")
	}
	if _, err := ss.begin(threads); err != nil {
		return ReplayResult{}, err
	}
	agents := ss.agentSlice(threads)
	replays := make([]*ReplayAgent, threads)
	for i := range agents {
		a := &ReplayAgent{}
		for j := i; j < len(ops); j += threads {
			a.Ops = append(a.Ops, ops[j])
		}
		replays[i] = a
		agents[i] = a
	}
	res, err := ss.run(agents, 100_000_000)
	if err != nil {
		return ReplayResult{}, err
	}
	out := ReplayResult{Threads: threads, Ops: len(ops), Cycles: res.Cycles}
	for _, a := range replays {
		out.Latency.Merge(a.Latency)
	}
	if res.Cycles > 0 {
		out.OpsPerCycle = float64(len(ops)) / float64(res.Cycles)
	}
	return out, nil
}
