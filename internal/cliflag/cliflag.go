// Package cliflag wires the flag families the CLIs share, so every
// command exposes identical controls with identical help text: the
// live-introspection endpoint (-listen), the request-lifecycle span
// recorder (-spans, -span-out, -span-sample, -span-threshold) and link
// fault injection (-fault-rate, -fault-seed, -fault-kinds). It also
// owns the process-level graceful-shutdown hook (SIGINT/SIGTERM) that
// closes the endpoint, and anything else registered, before exit.
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/span"
)

// Metrics holds the parsed metrics-endpoint flag value.
type Metrics struct {
	// Listen is the endpoint bind address ("" = endpoint disabled).
	Listen string
}

// RegisterMetrics installs -listen on the default flag set. Call before
// flag.Parse.
func RegisterMetrics() *Metrics {
	f := &Metrics{}
	flag.StringVar(&f.Listen, "listen", "",
		"serve the live introspection endpoint on this address (e.g. :8080)")
	return f
}

// Serve starts the live introspection endpoint over reg when -listen
// was given, prints the bound address to stderr under the program's
// name, and registers the listener for graceful close on SIGINT/
// SIGTERM. It returns the bound listener, or nil when the endpoint is
// disabled.
func (f *Metrics) Serve(prog string, reg *metrics.Registry) (net.Listener, error) {
	if f.Listen == "" {
		return nil, nil
	}
	ln, err := metrics.Serve(f.Listen, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: serving metrics at http://%s/\n", prog, ln.Addr())
	OnShutdown(func() { ln.Close() })
	return ln, nil
}

// Spans holds the parsed span-tracing flag values.
type Spans struct {
	// On enables request-lifecycle tracing.
	On bool
	// Out is the Perfetto trace-event JSON output path.
	Out string
	// Sample is the TAG-modulo sampling divisor (1 = every request).
	Sample uint64
	// Threshold flags spans slower than this many cycles as anomalies
	// (0 disables the check).
	Threshold uint64
}

// RegisterSpans installs the span flag family on the default flag set.
// Call before flag.Parse.
func RegisterSpans() *Spans {
	f := &Spans{}
	flag.BoolVar(&f.On, "spans", false,
		"record request-lifecycle spans (per-stage latency attribution) into the flight recorder")
	flag.StringVar(&f.Out, "span-out", "",
		"write the recorded spans as Chrome/Perfetto trace-event JSON to this file (load at ui.perfetto.dev)")
	flag.Uint64Var(&f.Sample, "span-sample", 1,
		"track requests whose TAG is divisible by this (1 = every request)")
	flag.Uint64Var(&f.Threshold, "span-threshold", 0,
		"flag spans slower than this many cycles as anomalies (0 = off)")
	return f
}

// Tracer builds the flight recorder the flags describe, or nil when
// -spans was not given.
func (f *Spans) Tracer() *span.Tracer {
	if !f.On {
		return nil
	}
	return span.New(span.Config{
		SampleMod:       uint32(f.Sample),
		ThresholdCycles: f.Threshold,
	})
}

// Finish dumps the recorder after a run: the Perfetto trace to -span-out
// (when given) and the per-stage attribution table to w.
func (f *Spans) Finish(w io.Writer, t *span.Tracer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	if f.Out != "" {
		out, err := os.Create(f.Out)
		if err != nil {
			return err
		}
		if err := span.WritePerfetto(out, events); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d span events; open at ui.perfetto.dev)\n", f.Out, len(events))
	}
	fmt.Fprint(w, span.Attribute(events).Report())
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(w, "flight recorder wrapped: %d oldest events overwritten (raise capacity or -span-sample)\n", d)
	}
	if a := t.Anomalies(); a > 0 {
		fmt.Fprintf(w, "anomalies: %d spans exceeded %d cycles\n", a, f.Threshold)
	}
	return nil
}

// RegisterFaults installs the fault-injection flag trio on the default
// flag set and returns the plan flag.Parse fills in; the plan injects
// nothing unless -fault-rate is positive (fault.Plan.Enabled).
func RegisterFaults() *fault.Plan {
	p := &fault.Plan{}
	flag.Float64Var(&p.Rate, "fault-rate", 0,
		"per-traversal link fault probability in [0,1] (0 disables injection)")
	flag.Uint64Var(&p.Seed, "fault-seed", 1,
		"fault injection seed; the same seed reproduces the exact fault sequence")
	flag.Func("fault-kinds", "comma-separated fault `kinds`: crc, flip, drop, down or all (default all)",
		func(s string) error {
			k, err := fault.ParseKinds(s)
			p.Kinds = k
			return err
		})
	return p
}

var (
	shutdownMu  sync.Mutex
	shutdownFns []func()
	shutdownOn  bool
)

// OnShutdown registers fn to run when the process receives SIGINT or
// SIGTERM. The first signal runs every registered function in reverse
// registration order (most recently acquired resource released first)
// and exits with the conventional 128+signal status; a second signal
// during that teardown force-exits immediately. Installing a handler
// replaces Go's default die-on-signal behavior, so OnShutdown always
// exits after the callbacks — callers register cleanups, not vetoes.
func OnShutdown(fn func()) {
	shutdownMu.Lock()
	defer shutdownMu.Unlock()
	shutdownFns = append(shutdownFns, fn)
	if shutdownOn {
		return
	}
	shutdownOn = true
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		go func() {
			<-ch // second signal: skip the graceful path
			os.Exit(128 + signum(sig))
		}()
		shutdownMu.Lock()
		fns := append([]func(){}, shutdownFns...)
		shutdownMu.Unlock()
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i]()
		}
		os.Exit(128 + signum(sig))
	}()
}

func signum(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return int(s)
	}
	return 0
}
