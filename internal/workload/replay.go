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
// line-oriented trace format, a parser/writer pair, deterministic
// generators for the pathological patterns of the early results
// (stride-1 and random), and an agent that replays a trace slice through
// the device.
//
// Trace format, one request per line ('#' starts a comment):
//
//	RD <addr> <bytes>     # architected read (16..256 bytes)
//	WR <addr> <bytes>     # architected write
//	<MNEMONIC> <addr>     # any atomic, e.g. "INC8 0x40", "CASEQ8 0x80"

// ErrBadTrace reports a malformed trace line.
var ErrBadTrace = errors.New("workload: malformed trace line")

// ReplayOp is one parsed trace request.
type ReplayOp struct {
	// Cmd is the request command; reads and writes are selected by Bytes.
	Cmd hmccmd.Rqst
	// Addr is the target address.
	Addr uint64
	// Bytes is the data size for reads/writes (0 for atomics).
	Bytes int
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
	switch mn {
	case "RD", "WR":
		if len(fields) != 3 {
			return ReplayOp{}, fmt.Errorf("%w: %s needs addr and bytes", ErrBadTrace, mn)
		}
		addr, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			return ReplayOp{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return ReplayOp{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		cmd := hmccmd.RD16
		if mn == "WR" {
			cmd = hmccmd.WR16
		}
		return ReplayOp{Cmd: cmd, Addr: addr, Bytes: n}, nil
	default:
		if len(fields) != 2 {
			return ReplayOp{}, fmt.Errorf("%w: %s needs an address", ErrBadTrace, mn)
		}
		cmd, ok := commandByName(mn)
		if !ok {
			return ReplayOp{}, fmt.Errorf("%w: unknown command %q", ErrBadTrace, mn)
		}
		info := cmd.Info()
		if info.Class != hmccmd.ClassAtomic && info.Class != hmccmd.ClassPostedAtomic {
			return ReplayOp{}, fmt.Errorf("%w: %s is not replayable here (use RD/WR)", ErrBadTrace, mn)
		}
		addr, err := strconv.ParseUint(fields[1], 0, 64)
		if err != nil {
			return ReplayOp{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
		}
		return ReplayOp{Cmd: cmd, Addr: addr}, nil
	}
}

// commandByName resolves an architected command mnemonic.
func commandByName(name string) (hmccmd.Rqst, bool) {
	for _, cmd := range hmccmd.Architected() {
		if cmd.Info().Name == name {
			return cmd, true
		}
	}
	return 0, false
}

// WriteTrace renders ops in the trace format.
func WriteTrace(w io.Writer, ops []ReplayOp) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		var err error
		switch op.Cmd {
		case hmccmd.RD16:
			_, err = fmt.Fprintf(bw, "RD 0x%x %d\n", op.Addr, op.Bytes)
		case hmccmd.WR16:
			_, err = fmt.Fprintf(bw, "WR 0x%x %d\n", op.Addr, op.Bytes)
		default:
			_, err = fmt.Fprintf(bw, "%s 0x%x\n", op.Cmd.Info().Name, op.Addr)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// GenerateStrideTrace produces n sequential 64-byte reads from base — the
// STREAM-like pathological pattern of the early HMC-Sim results.
func GenerateStrideTrace(base uint64, n int) []ReplayOp {
	ops := make([]ReplayOp, n)
	for i := range ops {
		ops[i] = ReplayOp{Cmd: hmccmd.RD16, Addr: base + uint64(i)*64, Bytes: 64}
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
		cmd, bytes := hmccmd.RD16, 16
		if rng.Intn(2) == 1 {
			cmd = hmccmd.WR16
		}
		ops[i] = ReplayOp{Cmd: cmd, Addr: addr, Bytes: bytes}
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
	info := op.Cmd.Info()
	var r *packet.Rqst
	var err error
	switch {
	case op.Cmd == hmccmd.RD16 && op.Bytes > 0:
		r, err = a.scratch.BuildRead(0, op.Addr, 0, 0, op.Bytes)
	case op.Cmd == hmccmd.WR16 && op.Bytes > 0:
		pl := a.scratch.Payload(op.Bytes / 8)
		clear(pl) // traces carry no data; replay writes zeros
		r, err = a.scratch.BuildWrite(0, op.Addr, 0, 0, pl, false)
	default:
		pl := a.scratch.Payload(2 * (int(info.RqstFlits) - 1))
		clear(pl)
		r, err = a.scratch.BuildAtomic(op.Cmd, 0, op.Addr, 0, 0, pl)
	}
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
