package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/device"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ledger is a traced pass's outside-in account: host time measured
// around the calls the benchmark makes into each layer's public
// functions, summed over the goroutines driving the work. The parts and
// the unattributed remainder add up to wall.
type ledger struct {
	wall      time.Duration
	parts     []ledgerPart
	remainder string // the layer the unattributed time is charged to
	metrics   map[string]float64
	// perSession marks a fleet workload, which reports heap per session.
	perSession bool
}

type ledgerPart struct {
	name string
	d    time.Duration
}

func (l *ledger) rest() time.Duration {
	r := l.wall
	for _, p := range l.parts {
		r -= p.d
	}
	return r
}

// closes reports whether the timed layers fit inside the wall time: no
// layer is negative and the remainder is no less than -1 % of wall,
// which would mean time was counted twice.
func (l *ledger) closes() bool {
	for _, p := range l.parts {
		if p.d < 0 {
			return false
		}
	}
	return l.wall > 0 && float64(l.rest()) >= -0.01*float64(l.wall)
}

func (l *ledger) rows() []string {
	out := []string{fmt.Sprintf("ledger: %.3f s traced wall over all driving goroutines", l.wall.Seconds())}
	row := func(name string, d time.Duration) {
		out = append(out, fmt.Sprintf("ledger %-28s %10.4f s %7.2f %%", name, d.Seconds(), 100*ratio(float64(d), float64(l.wall))))
	}
	sum := time.Duration(0)
	for _, p := range l.parts {
		row(p.name, p.d)
		sum += p.d
	}
	row(l.remainder+" (remainder)", l.rest())
	row("sum", sum+l.rest())
	return out
}

// simCounts accumulates timed calls into the sim facade and the device
// counters behind them.
type simCounts struct {
	agent, send, recv, clock, reset                      time.Duration
	rqsts, sends, stalls, recvs, empties, clocks, cycles uint64
	resets, simCycles                                    uint64
	devCycles, devRqsts, bankConf, xbarBP, linkSer       uint64
}

func (c *simCounts) add(o *simCounts) {
	c.agent += o.agent
	c.send += o.send
	c.recv += o.recv
	c.clock += o.clock
	c.reset += o.reset
	c.rqsts += o.rqsts
	c.sends += o.sends
	c.stalls += o.stalls
	c.recvs += o.recvs
	c.empties += o.empties
	c.clocks += o.clocks
	c.cycles += o.cycles
	c.resets += o.resets
	c.simCycles += o.simCycles
	c.devCycles += o.devCycles
	c.devRqsts += o.devRqsts
	c.bankConf += o.bankConf
	c.xbarBP += o.xbarBP
	c.linkSer += o.linkSer
}

// addDevices folds a finished run's device counters in.
func (c *simCounts) addDevices(s *sim.Simulator) {
	c.simCycles += s.Cycle()
	for _, d := range s.Devices() {
		st := d.Stats()
		c.devCycles += st.Cycles
		for _, n := range st.Rqsts {
			c.devRqsts += n
		}
		c.bankConf += st.BankConflicts
		c.xbarBP += st.XbarBackpressure
		c.linkSer += st.LinkSerStalls
	}
}

// fill writes the sim.* and device.* metrics.
func (c *simCounts) fill(m map[string]float64) {
	ns := func(d time.Duration, n uint64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	m["sim.send_ns"] = ns(c.send, c.sends)
	m["sim.send_stall_ratio"] = ratio(float64(c.stalls), float64(c.sends))
	m["sim.recv_ns"] = ns(c.recv, c.recvs)
	m["sim.recv_empty_ratio"] = ratio(float64(c.empties), float64(c.recvs))
	m["sim.reset_us"] = ns(c.reset, c.resets) / 1e3
	m["sim.clock_ns_per_cycle"] = ns(c.clock, c.cycles)
	m["sim.cycles_per_clock_call"] = ratio(float64(c.cycles), float64(c.clocks))
	m["device.walked_cycle_ratio"] = ratio(float64(c.devCycles), float64(c.simCycles))
	m["device.rqsts_per_kcycle"] = ratio(float64(c.devRqsts), float64(c.simCycles)/1e3)
	m["device.bank_conflicts_per_rqst"] = ratio(float64(c.bankConf), float64(c.devRqsts))
	m["device.xbar_backpressure_per_rqst"] = ratio(float64(c.xbarBP), float64(c.devRqsts))
	m["device.link_ser_stalls_per_rqst"] = ratio(float64(c.linkSer), float64(c.devRqsts))
}

// engineLedger turns a device workload's traced counts into its ledger:
// agent, sim calls and Reset are timed, and the engine loop itself is
// the remainder.
func engineLedger(wall time.Duration, c *simCounts) *ledger {
	l := &ledger{
		wall: wall,
		parts: []ledgerPart{
			{"workload.agent", c.agent},
			{"sim.send", c.send},
			{"sim.recv", c.recv},
			{"sim.clock", c.clock},
			{"sim.reset", c.reset},
		},
		remainder: "workload.engine",
		metrics:   make(map[string]float64),
	}
	c.fill(l.metrics)
	l.metrics["workload.agent_ns_per_op"] = ratio(float64(c.agent.Nanoseconds()), float64(c.rqsts))
	l.metrics["workload.engine_ns_per_op"] = ratio(float64(l.rest().Nanoseconds()), float64(c.rqsts))
	return l
}

// twinState mirrors the engine's per-agent bookkeeping.
type twinState struct {
	outstanding, done bool
	pending           *packet.Rqst
}

// runTwin is the traced twin of workload.Run: the same issue / clock /
// drain loop, statement for statement, driven through the public sim
// API with every call into the agent and the simulator timed into c.
// Its completion cycles and device statistics must equal Run's on the
// same input; the callers check that they do.
func runTwin(s *sim.Simulator, agents []workload.Agent, maxCycles uint64, c *simCounts) ([]uint64, error) {
	completion := make([]uint64, len(agents))
	state := make([]twinState, len(agents))
	links := s.Links()
	remaining := 0
	for i, a := range agents {
		if a.Done() {
			state[i].done = true
			continue
		}
		remaining++
	}
	outstanding := 0
	for remaining > 0 {
		if s.Cycle() >= maxCycles {
			return nil, fmt.Errorf("twin: %d agents unfinished after %d cycles", remaining, s.Cycle())
		}
		if outstanding == remaining {
			t0 := time.Now()
			adv := s.ClockUntilRecv(maxCycles - s.Cycle())
			c.clock += time.Since(t0)
			c.clocks++
			c.cycles += adv
		} else {
			for i, a := range agents {
				st := &state[i]
				if st.done || st.outstanding {
					continue
				}
				r := st.pending
				if r == nil {
					t0 := time.Now()
					r = a.Next(s.Cycle())
					c.agent += time.Since(t0)
					if r == nil {
						if a.Done() && !st.done {
							st.done = true
							completion[i] = s.Cycle()
							remaining--
						}
						continue
					}
					r.TAG = uint16(i)
					r.SLID = uint8(i % links)
				}
				t0 := time.Now()
				err := s.Send(int(r.SLID), r)
				c.send += time.Since(t0)
				c.sends++
				if err != nil {
					st.pending = r
					c.stalls++
					continue
				}
				st.pending = nil
				c.rqsts++
				if r.Cmd.Posted() {
					t0 := time.Now()
					err := a.Complete(nil, s.Cycle())
					c.agent += time.Since(t0)
					if err != nil {
						return nil, fmt.Errorf("twin: agent %d: %w", i, err)
					}
				} else {
					st.outstanding = true
					outstanding++
				}
			}
			t0 := time.Now()
			s.Clock()
			c.clock += time.Since(t0)
			c.clocks++
			c.cycles++
		}
		for link := 0; link < links; link++ {
			for {
				t0 := time.Now()
				rsp, ok := s.Recv(link)
				c.recv += time.Since(t0)
				c.recvs++
				if !ok {
					c.empties++
					break
				}
				i := int(rsp.TAG)
				if i >= len(agents) || !state[i].outstanding {
					return nil, fmt.Errorf("twin: response with unexpected tag %d", rsp.TAG)
				}
				state[i].outstanding = false
				outstanding--
				t0 = time.Now()
				err := agents[i].Complete(rsp, s.Cycle())
				c.agent += time.Since(t0)
				sim.ReleaseRsp(rsp)
				if err != nil {
					return nil, fmt.Errorf("twin: agent %d: %w", i, err)
				}
				if agents[i].Done() && !state[i].done {
					state[i].done = true
					completion[i] = s.Cycle()
					remaining--
				}
			}
		}
	}
	return completion, nil
}

// runFingerprint is what the twin must reproduce: every completion
// cycle and every device's statistics.
type runFingerprint struct {
	completion []uint64
	stats      []device.Stats
}

func fingerprint(s *sim.Simulator, completion []uint64) runFingerprint {
	f := runFingerprint{completion: append([]uint64(nil), completion...)}
	for _, d := range s.Devices() {
		f.stats = append(f.stats, d.Stats())
	}
	return f
}

func (f runFingerprint) equal(g runFingerprint) bool {
	return slices.Equal(f.completion, g.completion) && slices.Equal(f.stats, g.stats)
}
