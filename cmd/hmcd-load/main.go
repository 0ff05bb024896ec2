// Command hmcd-load is the session-server load generator: it opens a
// many-thousand-session fleet against an hmcd endpoint (or an
// in-process server, the default), drives every session through
// timed operation rounds, and reports sessions/sec, ops/sec and exact
// p50/p99 round-trip latency as a JSON benchmark record.
//
// Usage:
//
//	hmcd-load                                   # 10000 sessions, in-process server
//	hmcd-load -sessions 25000 -rounds 5         # bigger fleet, more churn
//	hmcd-load -proto binary -batch              # binary frames, coalesced rounds
//	hmcd-load -net tcp -addr 127.0.0.1:7470     # against a running hmcd
//	hmcd-load -net unix -addr /run/hmcd.sock
//	hmcd-load -conns 8 -workers 64              # connection and driver fan-out
//	hmcd-load -preset 2gb-dev -out load.json
//
// Each round issues one send + clock_until_recv + recv sequence per
// session — three protocol round trips, or a single coalesced batch
// frame with -batch; the fleet stays fully open from the first init to
// the final close, so the run demonstrates sustained concurrent-session
// capacity, not just churn.
//
// Latency is accounted in two separate populations: open-phase init
// latency (open_p50_ns/open_p99_ns/open_max_ns), where thousands of
// simulator builds contend, and steady-state operation latency
// (p50_ns/p99_ns/max_ns), sampled only after -warmup untimed rounds
// have faulted in every session's working set. Earlier versions mixed
// first-touch page materialization into the op tail, which is how a
// sub-millisecond p99 gained a 270ms max.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hmcsim "repro"
	_ "repro/cmcops"
	"repro/internal/hmccmd"
)

type result struct {
	Name         string  `json:"name"`
	Sessions     int     `json:"sessions"`
	Conns        int     `json:"conns"`
	Workers      int     `json:"workers"`
	Rounds       int     `json:"rounds"`
	Warmup       int     `json:"warmup_rounds"`
	Preset       string  `json:"preset"`
	Transport    string  `json:"transport"`
	Proto        string  `json:"proto"`
	Batch        bool    `json:"batch"`
	OpenSecs     float64 `json:"open_secs"`
	SessionsPerS float64 `json:"sessions_per_sec"`
	OpenP50Ns    int64   `json:"open_p50_ns"`
	OpenP99Ns    int64   `json:"open_p99_ns"`
	OpenMaxNs    int64   `json:"open_max_ns"`
	Ops          uint64  `json:"ops"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	MaxNs        int64   `json:"max_ns"`
	CloseSecs    float64 `json:"close_secs"`
	PeakHeap     uint64  `json:"peak_heap_bytes"`
	HeapPerSess  uint64  `json:"heap_bytes_per_session"`
}

func main() {
	sessions := flag.Int("sessions", 10000, "concurrent sessions to hold open")
	rounds := flag.Int("rounds", 3, "timed operation rounds over the whole fleet")
	warmup := flag.Int("warmup", 1, "untimed warm-up rounds before measurement")
	conns := flag.Int("conns", 4, "client connections to spread sessions across")
	workers := flag.Int("workers", 32, "driver goroutines")
	preset := flag.String("preset", "2gb-dev", "device preset for every session")
	proto := flag.String("proto", "json", "wire encoding: json or binary")
	batch := flag.Bool("batch", false, "coalesce each round's ops into one batch frame")
	network := flag.String("net", "", "endpoint network: tcp or unix (\"\" = in-process server)")
	addr := flag.String("addr", "", "endpoint address for -net")
	out := flag.String("out", "", "write the JSON record here (default stdout)")
	flag.Parse()

	if *proto != hmcsim.SessionProtoJSON && *proto != hmcsim.SessionProtoBinary {
		fatal(fmt.Errorf("unknown -proto %q (json or binary)", *proto))
	}
	if err := checkCounts(*sessions, *rounds, *conns, *workers, *warmup); err != nil {
		fatal(err)
	}

	transport := "inproc"
	var clients []*hmcsim.SessionClient
	if *network == "" {
		srv := hmcsim.ServeSessions(hmcsim.SessionServerConfig{MaxSessions: *sessions + 16})
		defer srv.Close()
		for i := 0; i < *conns; i++ {
			here, there := net.Pipe()
			srv.ServeConn(there)
			cl := hmcsim.NewSessionClient(here)
			if err := cl.Hello(*proto); err != nil {
				fatal(err)
			}
			clients = append(clients, cl)
		}
	} else {
		transport = *network
		for i := 0; i < *conns; i++ {
			cl, err := hmcsim.DialSessionsProto(*network, *addr, *proto)
			if err != nil {
				fatal(err)
			}
			clients = append(clients, cl)
		}
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	name := "hmcd_load"
	if *proto == hmcsim.SessionProtoBinary {
		name += "_binary"
	}
	if *batch {
		name += "_batch"
	}
	res := result{
		Name:      name,
		Sessions:  *sessions,
		Conns:     *conns,
		Workers:   *workers,
		Rounds:    *rounds,
		Warmup:    *warmup,
		Preset:    *preset,
		Transport: transport,
		Proto:     *proto,
		Batch:     *batch,
	}

	// Phase 1: open the whole fleet, sampling per-init latency into its
	// own population — thousands of simulator builds contending is a
	// different regime from steady-state ops and must not pollute their
	// percentiles.
	ids := make([]uint64, *sessions)
	openLats := make([]int64, *sessions)
	var heapBase uint64
	{
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heapBase = ms.HeapInuse
	}
	start := time.Now()
	if err := fanout(*workers, *sessions, func(i int) error {
		t0 := time.Now()
		id, err := clients[i%len(clients)].Init(*preset)
		if err != nil {
			return fmt.Errorf("init %d: %w", i, err)
		}
		openLats[i] = time.Since(t0).Nanoseconds()
		ids[i] = id
		return nil
	}); err != nil {
		fatal(err)
	}
	res.OpenSecs = time.Since(start).Seconds()
	res.SessionsPerS = float64(*sessions) / res.OpenSecs
	res.OpenP50Ns, res.OpenP99Ns, res.OpenMaxNs = percentiles(openLats)

	// round drives one send+clock_until_recv+recv sequence per session.
	// With -batch the three ops travel as one coalesced frame; latency
	// is sampled per protocol round trip either way (so batched samples
	// cover three ops each). sink==nil runs the round untimed.
	var latMu sync.Mutex
	var ops atomic.Uint64
	rd := hmccmd.RD64.Code()
	round := func(sink *[]int64) error {
		return fanoutW(*workers, *sessions, func() func(int) error {
			batches := make([]*hmcsim.SessionBatch, len(clients))
			local := make([]int64, 0, 3)
			return func(i int) error {
				cl, sess := clients[i%len(clients)], ids[i]
				tag := uint16(i%2000 + 1)
				adrs := uint64(i%512) * 64
				local = local[:0]
				if *batch {
					b := batches[i%len(clients)]
					if b == nil {
						b = cl.NewBatch(sess)
						batches[i%len(clients)] = b
					}
					b.Begin(sess)
					b.Send(0, rd, 0, adrs, tag, nil)
					b.ClockUntilRecv(1 << 16)
					b.Recv(0)
					t0 := time.Now()
					rsps, err := b.Do()
					if err != nil {
						return err
					}
					local = append(local, time.Since(t0).Nanoseconds())
					switch {
					case !rsps[0].OK || !rsps[1].OK || !rsps[2].OK:
						return fmt.Errorf("session %d: batch sub-op failed: %+v", sess, rsps)
					case !rsps[0].Accepted:
						return fmt.Errorf("session %d: stalled", sess)
					case !rsps[2].Have:
						return fmt.Errorf("session %d: empty recv", sess)
					}
					ops.Add(3)
				} else {
					step := func(f func() error) error {
						t0 := time.Now()
						if err := f(); err != nil {
							return err
						}
						local = append(local, time.Since(t0).Nanoseconds())
						ops.Add(1)
						return nil
					}
					err := step(func() error {
						acc, err := cl.Send(sess, 0, rd, 0, adrs, tag, nil)
						if err != nil {
							return err
						}
						if !acc {
							return fmt.Errorf("session %d: stalled", sess)
						}
						return nil
					})
					if err == nil {
						err = step(func() error {
							_, avail, err := cl.ClockUntilRecv(sess, 1<<16)
							if err == nil && !avail {
								err = fmt.Errorf("session %d: no response in budget", sess)
							}
							return err
						})
					}
					if err == nil {
						err = step(func() error {
							rsp, err := cl.Recv(sess, 0)
							if err == nil && !rsp.Have {
								err = fmt.Errorf("session %d: empty recv", sess)
							}
							return err
						})
					}
					if err != nil {
						return err
					}
				}
				if sink != nil {
					latMu.Lock()
					*sink = append(*sink, local...)
					latMu.Unlock()
				}
				return nil
			}
		})
	}

	// Phase 2a: untimed warm-up — first-touch page materialization,
	// pool fills and map growth all land here, not in the percentiles.
	for w := 0; w < *warmup; w++ {
		if err := round(nil); err != nil {
			fatal(err)
		}
	}
	ops.Store(0)

	// Phase 2b: timed rounds.
	lats := make([]int64, 0, 3*(*rounds)*(*sessions))
	start = time.Now()
	for r := 0; r < *rounds; r++ {
		if err := round(&lats); err != nil {
			fatal(err)
		}
	}
	opsSecs := time.Since(start).Seconds()
	res.Ops = ops.Load()
	res.OpsPerSec = float64(res.Ops) / opsSecs

	{
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.PeakHeap = ms.HeapInuse
		if ms.HeapInuse > heapBase && *sessions > 0 {
			res.HeapPerSess = (ms.HeapInuse - heapBase) / uint64(*sessions)
		}
	}
	res.P50Ns, res.P99Ns, res.MaxNs = percentiles(lats)

	// Phase 3: close the fleet.
	start = time.Now()
	if err := fanout(*workers, *sessions, func(i int) error {
		return clients[i%len(clients)].CloseSession(ids[i])
	}); err != nil {
		fatal(err)
	}
	res.CloseSecs = time.Since(start).Seconds()

	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// checkCounts reports the first count flag below its floor. A fleet,
// round, connection or worker count under 1 would panic (no client to
// pick, a negative slice length) or record a run of no operations, and
// a negative warm-up count means nothing.
func checkCounts(sessions, rounds, conns, workers, warmup int) error {
	for _, f := range []struct {
		name     string
		v, floor int
	}{
		{"sessions", sessions, 1}, {"rounds", rounds, 1}, {"conns", conns, 1},
		{"workers", workers, 1}, {"warmup", warmup, 0},
	} {
		if f.v < f.floor {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.floor, f.v)
		}
	}
	return nil
}

// percentiles sorts lats in place and returns p50, p99 and max.
func percentiles(lats []int64) (p50, p99, max int64) {
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	if n := len(lats); n > 0 {
		return lats[n/2], lats[n*99/100], lats[n-1]
	}
	return 0, 0, 0
}

// fanout runs fn(0..n-1) across w goroutines, stopping at the first
// error.
func fanout(w, n int, fn func(int) error) error {
	return fanoutW(w, n, func() func(int) error { return fn })
}

// fanoutW is fanout with worker-local state: mk runs once per worker
// goroutine and returns that worker's fn, so drivers can keep reusable
// scratch (batch accumulators) without locking.
func fanoutW(w, n int, mk func() func(int) error) error {
	if w < 1 {
		w = 1
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := mk()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return err.(error)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcd-load:", err)
	os.Exit(1)
}
