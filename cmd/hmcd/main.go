// Command hmcd is the simulator-as-a-service daemon: it hosts
// thousands of independent HMC-Sim sessions behind the line-delimited
// JSON protocol (internal/server), so external drivers — gem5 ports,
// script harnesses, load generators — co-simulate against real device
// timing over a socket instead of linking the Go packages.
//
// Usage:
//
//	hmcd -tcp :7470                      # serve the protocol over TCP
//	hmcd -sock /run/hmcd.sock            # ... and/or a Unix socket
//	hmcd -ttl 5m                         # evict sessions idle for 5 minutes
//	hmcd -max-sessions 65536             # session capacity
//	hmcd -listen :8080                   # live /metrics, /debug/vars, /debug/pprof/
//
// A session is one simulator: init it on a preset, drive it with
// send/recv/clock*, read its stats, close it. Closed (or idle-evicted)
// sessions return their simulator to a pool, so a new session skips the
// simulator build. Churn still allocates, since the next tenant rebuilds
// the parts of the device it touches: one pooled session of a write and
// a read round costs 2,426 B in 24 allocations, against 10,815 B in 48
// with -pool -1 (BenchmarkServerSessionChurn in internal/server).
// SIGINT/SIGTERM drain the server gracefully.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	hmcsim "repro"
	_ "repro/cmcops"
	"repro/internal/cliflag"
)

func main() {
	tcpAddr := flag.String("tcp", ":7470", "serve the session protocol on this TCP address (\"\" disables)")
	sockPath := flag.String("sock", "", "serve the session protocol on this Unix socket path")
	maxSessions := flag.Int("max-sessions", 0, "concurrent session cap (0 = default 65536)")
	ttl := flag.Duration("ttl", 0, "evict sessions idle this long (0 disables eviction)")
	poolCap := flag.Int("pool", 0, "idle simulators retained for reuse (0 = default 1024, negative disables pooling)")
	metricsFlags := cliflag.RegisterMetrics()
	flag.Parse()

	if *tcpAddr == "" && *sockPath == "" {
		fmt.Fprintln(os.Stderr, "hmcd: need -tcp and/or -sock")
		os.Exit(2)
	}

	reg := hmcsim.NewMetricsRegistry()
	srv := hmcsim.ServeSessions(hmcsim.SessionServerConfig{
		MaxSessions: *maxSessions,
		IdleTTL:     *ttl,
		PoolCap:     *poolCap,
		Registry:    reg,
	})
	cliflag.OnShutdown(func() { srv.Close() })

	if _, err := metricsFlags.Serve("hmcd", reg); err != nil {
		fatal(err)
	}

	errs := make(chan error, 2)
	transports := 0
	serve := func(network, addr string) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hmcd: serving sessions on %s %s\n", network, ln.Addr())
		if network == "unix" {
			cliflag.OnShutdown(func() { os.Remove(addr) })
		}
		transports++
		go func() { errs <- srv.Serve(ln) }()
	}
	if *tcpAddr != "" {
		serve("tcp", *tcpAddr)
	}
	if *sockPath != "" {
		serve("unix", *sockPath)
	}

	// Serve returns nil when its listener closes — the graceful path is
	// a signal, whose handler drains the server and exits the process
	// with 128+signal; anything else is a startup/runtime failure. Main
	// then waits for that exit: returning would end the process with
	// status 0 in the middle of the drain.
	for i := 0; i < transports; i++ {
		if err := <-errs; err != nil {
			fatal(err)
		}
	}
	select {}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcd:", err)
	os.Exit(1)
}
