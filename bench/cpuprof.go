package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuProfile is a traced run's CPU profile, sampled over its untraced
// half.
type cpuProfile struct {
	path    string
	f       *os.File
	samples time.Duration // total sampled CPU time
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// moduleShares lists every function's self time with `go tool pprof
// -top` and sums it by module, as percentages of the sampled total.
func (p *cpuProfile) moduleShares() (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(modules))
	var total time.Duration
	for fn, d := range flat {
		shares[moduleOf(fn)] += float64(d)
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s has no samples", p.path)
	}
	for m := range shares {
		shares[m] = 100 * shares[m] / float64(total)
	}
	p.samples = total
	return shares, nil
}

// parseTop reads the flat time per function from `pprof -top` output,
// whose rows are "flat flat% sum% cum cum% name".
func parseTop(out []byte) (map[string]time.Duration, error) {
	flat := make(map[string]time.Duration)
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		flat[f[5]] += d
	}
	if !header {
		return nil, fmt.Errorf("no table in pprof -top output:\n%s", out)
	}
	return flat, sc.Err()
}

// moduleRules map a function name prefix to its module; the first match
// wins and anything unmatched is "other". Runtime functions are split
// by name into allocation and collection (gc), scheduling, channels and
// timers (sched), and system calls.
var moduleRules = []struct{ prefix, module string }{
	{"repro/internal/device.", "device"},
	{"repro/internal/queue.", "queue"},
	{"repro/internal/mem.", "mem"},
	{"repro/internal/cmc.", "cmc"},
	{"repro/internal/cmc/", "cmc"},
	{"repro/cmcops.", "cmc"},
	{"repro/internal/amo.", "amo"},
	{"repro/internal/addr.", "addr"},
	{"repro/internal/packet.", "packet"},
	{"repro/internal/topo.", "topo"},
	{"repro/internal/sim.", "sim"},
	{"repro/internal/workload.", "workload"},
	{"repro/internal/server.", "server"},
	{"main.", "bench"},
	{"sync.", "sync"},
	{"sync/atomic.", "sync"},
	{"internal/sync.", "sync"},
	{"runtime.sync_", "sync"},
	{"runtime.semacquire", "sync"},
	{"runtime.semrelease", "sync"},
	{"runtime.(*semaRoot)", "sync"},
	{"syscall.", "syscall"},
	{"internal/poll.", "syscall"},
	{"internal/runtime/syscall.", "syscall"},
	{"runtime/internal/syscall.", "syscall"},
	{"net.", "syscall"},
	{"os.", "syscall"},
	{"runtime.write1", "syscall"},
	{"runtime.ready", "sched"},
	{"runtime.read", "syscall"},
	{"runtime.entersyscall", "syscall"},
	{"runtime.exitsyscall", "syscall"},
	{"runtime.gc", "gc"},
	{"runtime.mallocgc", "gc"},
	{"runtime.newobject", "gc"},
	{"runtime.newarray", "gc"},
	{"runtime.makeslice", "gc"},
	{"runtime.growslice", "gc"},
	{"runtime.nextFreeFast", "gc"},
	{"runtime.deductAssistCredit", "gc"},
	{"runtime.heapSetType", "gc"},
	{"runtime.heapBits", "gc"},
	{"runtime.typePointers", "gc"},
	{"runtime.scan", "gc"},
	{"runtime.mark", "gc"},
	{"runtime.greyobject", "gc"},
	{"runtime.findObject", "gc"},
	{"runtime.sweep", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{"runtime.wbBuf", "gc"},
	{"runtime.bulkBarrier", "gc"},
	{"runtime.(*gc", "gc"},
	{"runtime.(*mspan)", "gc"},
	{"runtime.(*mheap)", "gc"},
	{"runtime.(*mcache)", "gc"},
	{"runtime.(*mcentral)", "gc"},
	{"runtime.(*pageAlloc)", "gc"},
	{"runtime.(*sweep", "gc"},
	{"runtime.(*spanSet)", "gc"},
	{"runtime.(*scavenger", "gc"},
	{"runtime.schedule", "sched"},
	{"runtime.findRunnable", "sched"},
	{"runtime.park_m", "sched"},
	{"runtime.gopark", "sched"},
	{"runtime.goready", "sched"},
	{"runtime.mcall", "sched"},
	{"runtime.gosched", "sched"},
	{"runtime.goschedImpl", "sched"},
	{"runtime.futex", "sched"},
	{"runtime.note", "sched"},
	{"runtime.stopm", "sched"},
	{"runtime.startm", "sched"},
	{"runtime.mPark", "sched"},
	{"runtime.wakep", "sched"},
	{"runtime.runq", "sched"},
	{"runtime.stealWork", "sched"},
	{"runtime.netpoll", "sched"},
	{"runtime.epoll", "sched"},
	{"runtime.execute", "sched"},
	{"runtime.usleep", "sched"},
	{"runtime.osyield", "sched"},
	{"runtime.procyield", "sched"},
	{"runtime.lock", "sched"},
	{"runtime.unlock", "sched"},
	{"runtime.chan", "sched"},
	{"runtime.selectgo", "sched"},
	{"runtime.send", "sched"},
	{"runtime.recv", "sched"},
	{"runtime.casgstatus", "sched"},
	{"runtime.resetspinning", "sched"},
	{"runtime.handoffp", "sched"},
	{"runtime.acquirep", "sched"},
	{"runtime.releasep", "sched"},
	{"runtime.newproc", "sched"},
	{"runtime.goexit", "sched"},
	{"runtime.sysmon", "sched"},
	{"runtime.checkTimers", "sched"},
	{"runtime.(*timer", "sched"},
	{"runtime.(*waitq)", "sched"},
}

func moduleOf(fn string) string {
	for _, r := range moduleRules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.module
		}
	}
	return "other"
}
