package server

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	_ "repro/cmcops"
	"repro/internal/hmccmd"
)

// newTestPair builds a started server and a connected client over an
// in-process pipe, torn down with the test.
func newTestPair(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return srv, cl
}

func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v, want protocol error with code %s", err, code)
	}
	if pe.Code != code {
		t.Fatalf("code %s (%s), want %s", pe.Code, pe.Msg, code)
	}
}

// TestSessionLifecycle walks one session through every operation.
func TestSessionLifecycle(t *testing.T) {
	srv, cl := newTestPair(t, Config{})

	sess, err := cl.Init("4link-4gb")
	if err != nil {
		t.Fatal(err)
	}
	if srv.ActiveSessions() != 1 {
		t.Fatalf("active = %d, want 1", srv.ActiveSessions())
	}

	// A read round trip: send, run the clock to completion, receive.
	acc, err := cl.Send(sess, 0, hmccmd.RD64.Code(), 0, 0x1000, 5, nil)
	if err != nil || !acc {
		t.Fatalf("send: accepted=%v err=%v", acc, err)
	}
	adv, avail, err := cl.ClockUntilRecv(sess, 4096)
	if err != nil || !avail {
		t.Fatalf("clock_until_recv: adv=%d avail=%v err=%v", adv, avail, err)
	}
	rsp, err := cl.Recv(sess, 0)
	if err != nil {
		t.Fatal(err)
	}
	rdRS, _ := hmccmd.RdRS.Code()
	if !rsp.Have || rsp.Tag != 5 || rsp.Cmd != rdRS {
		t.Fatalf("recv = %+v, want RD_RS tag 5", rsp)
	}
	if len(rsp.Payload) != 8 {
		t.Fatalf("RD64 payload %d words, want 8", len(rsp.Payload))
	}

	// CMC load is idempotent per session.
	if err := cl.LoadCMC(sess, "hmc_lock"); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadCMC(sess, "hmc_lock"); err != nil {
		t.Fatalf("reload of bound op: %v", err)
	}
	wantCode(t, cl.LoadCMC(sess, "no_such_op"), CodeSim)

	// Stats reflect the traffic so far.
	st, err := cl.Stats(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Devices) != 1 || st.Devices[0].Rsps != 1 {
		t.Fatalf("stats = %+v, want one device with one response", st.Devices)
	}
	if st.Cycle == 0 || st.Cycle != st.Devices[0].Cycles {
		t.Fatalf("cycle %d disagrees with device cycles %d", st.Cycle, st.Devices[0].Cycles)
	}

	// Reset rewinds to cycle zero with the CMC table intact.
	if err := cl.Reset(sess); err != nil {
		t.Fatal(err)
	}
	if cyc, err := cl.Clock(sess); err != nil || cyc != 1 {
		t.Fatalf("clock after reset: cycle=%d err=%v", cyc, err)
	}
	st, err = cl.Stats(sess)
	if err != nil {
		t.Fatal(err)
	}
	if st.Devices[0].Rsps != 0 {
		t.Fatalf("stats after reset = %+v, want zeroed", st.Devices[0])
	}

	// Close kills the handle; the id never comes back.
	if err := cl.CloseSession(sess); err != nil {
		t.Fatal(err)
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("active = %d after close, want 0", srv.ActiveSessions())
	}
	_, err = cl.Clock(sess)
	wantCode(t, err, CodeNoSession)
	wantCode(t, cl.CloseSession(sess), CodeNoSession)
}

// TestInitErrors covers preset and capacity failures.
func TestInitErrors(t *testing.T) {
	srv, cl := newTestPair(t, Config{MaxSessions: 2})

	_, err := cl.Init("16link-1tb")
	wantCode(t, err, CodeBadPreset)

	a, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Init("2GBDev"); err != nil { // same preset, spelled differently
		t.Fatal(err)
	}
	_, err = cl.Init("2gb-dev")
	wantCode(t, err, CodeSessionLimit)

	// Freeing one slot re-admits an init.
	if err := cl.CloseSession(a); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Init("2gb-dev"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Lookup("hmc_server_sessions_opened_total").Number(); got != 3 {
		t.Errorf("sessions_opened = %v, want 3", got)
	}
}

// TestInitPresetNames pins that init resolves any spelling
// config.ByName accepts, and that the idle pool keys by the resolved
// configuration: two spellings of one preset share pooled simulators.
func TestInitPresetNames(t *testing.T) {
	srv, cl := newTestPair(t, Config{})
	for _, name := range []string{"4Link-4GB", "2gb"} {
		sess, err := cl.Init(name)
		if err != nil {
			t.Fatalf("init %q: %v", name, err)
		}
		if err := cl.CloseSession(sess); err != nil {
			t.Fatal(err)
		}
	}
	idle := srv.Metrics().Lookup("hmc_server_pool_idle")
	if got := idle.Number(); got != 2 {
		t.Fatalf("pool_idle = %v, want 2", got)
	}
	if _, err := cl.Init("2GB-Dev"); err != nil {
		t.Fatal(err)
	}
	if got := idle.Number(); got != 1 {
		t.Fatalf("pool_idle = %v after 2GB-Dev init, want 1 (the pooled 2gb simulator)", got)
	}
}

// TestBatchLimits pins the per-request clock caps.
func TestBatchLimits(t *testing.T) {
	_, cl := newTestPair(t, Config{})
	sess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ClockN(sess, maxClockBatch); err != nil {
		t.Fatal(err)
	}
	_, err = cl.ClockN(sess, maxClockBatch+1)
	wantCode(t, err, CodeLimit)
	_, _, err = cl.ClockUntilRecv(sess, maxRecvBudget+1)
	wantCode(t, err, CodeLimit)
	// Failed requests leave the session untouched.
	if cyc, err := cl.Clock(sess); err != nil || cyc != maxClockBatch+1 {
		t.Fatalf("cycle=%d err=%v, want %d", cyc, err, maxClockBatch+1)
	}
}

// TestSendValidation covers simulator-level send refusals.
func TestSendValidation(t *testing.T) {
	_, cl := newTestPair(t, Config{})
	sess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Send(sess, 0, 255, 0, 0, 1, nil) // unassigned command code
	wantCode(t, err, CodeSim)
	_, err = cl.Send(sess, 99, hmccmd.RD64.Code(), 0, 0, 1, nil) // bad link
	wantCode(t, err, CodeSim)
	_, err = cl.Send(sess, 0, hmccmd.WR64.Code(), 0, 0, 1, []uint64{1, 2}) // short payload
	wantCode(t, err, CodeSim)
	_, err = cl.Send(sess, 0, hmccmd.RD64.Code(), 7, 0, 1, nil) // bad cube
	wantCode(t, err, CodeSim)
}

// TestSendRejectsCUBBeyondField pins the cube check on both wire
// encodings: a send for a cube the 3-bit CUB field cannot hold is
// refused naming that cube, never narrowed onto another cube.
func TestSendRejectsCUBBeyondField(t *testing.T) {
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		t.Run(proto, func(t *testing.T) {
			_, cl := newTestPair(t, Config{})
			if err := cl.Hello(proto); err != nil {
				t.Fatal(err)
			}
			sess, err := cl.Init("2gb-dev")
			if err != nil {
				t.Fatal(err)
			}
			for _, cub := range []int{256, 257} {
				_, err := cl.Send(sess, 0, hmccmd.RD64.Code(), cub, 0, 1, nil)
				wantCode(t, err, CodeSim)
				if want := fmt.Sprintf("CUB %d ", cub); !strings.Contains(err.Error(), want) {
					t.Errorf("cube %d refused with %q, want it named", cub, err)
				}
			}
		})
	}
}

// TestPooledSimulatorScrubbed pins the reuse contract: a simulator
// released by one session comes back CMC-clean for the next — reloading
// the same op succeeds (a dirty table would answer ErrSlotBusy) and the
// statistics restart from zero.
func TestPooledSimulatorScrubbed(t *testing.T) {
	srv, cl := newTestPair(t, Config{})
	sess, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadCMC(sess, "hmc_lock"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ClockN(sess, 32); err != nil {
		t.Fatal(err)
	}
	if err := cl.CloseSession(sess); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().Lookup("hmc_server_pool_idle").Number(); got != 1 {
		t.Fatalf("pool_idle = %v, want 1", got)
	}

	sess2, err := cl.Init("2gb-dev") // pops the pooled simulator
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadCMC(sess2, "hmc_lock"); err != nil {
		t.Fatalf("reload on pooled simulator: %v", err)
	}
	st, err := cl.Stats(sess2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 0 || st.Devices[0].Cycles != 0 {
		t.Fatalf("pooled simulator not reset: %+v", st)
	}
}

// TestIdleEviction pins the TTL sweep: an untouched session dies, an
// active one survives, and eviction is indistinguishable from close.
func TestIdleEviction(t *testing.T) {
	srv, cl := newTestPair(t, Config{IdleTTL: 80 * time.Millisecond})
	idle, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	busy, err := cl.Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Clock(busy); err != nil {
			t.Fatalf("busy session died: %v", err)
		}
		if srv.ActiveSessions() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = cl.Clock(idle)
	wantCode(t, err, CodeNoSession)
	if got := srv.Metrics().Lookup("hmc_server_sessions_evicted_total").Number(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
}

// TestSmoke500Sessions is the CI loopback smoke: 500 concurrent
// sessions on one connection, each driven through a full
// send/clock/recv/stats round and closed, with eight goroutines
// sharing the client.
func TestSmoke500Sessions(t *testing.T) {
	srv, cl := newTestPair(t, Config{})
	const sessions = 500
	ids := make([]uint64, sessions)
	for i := range ids {
		id, err := cl.Init("2gb-dev")
		if err != nil {
			t.Fatalf("init %d: %v", i, err)
		}
		ids[i] = id
	}
	if srv.ActiveSessions() != sessions {
		t.Fatalf("active = %d, want %d", srv.ActiveSessions(), sessions)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < sessions; i += 8 {
				sess := ids[i]
				if err := func() error {
					acc, err := cl.Send(sess, i%2, hmccmd.RD32.Code(), 0, uint64(i)*64, uint16(i%100+1), nil)
					if err != nil {
						return err
					}
					if !acc {
						return fmt.Errorf("session %d: unexpected stall", sess)
					}
					if _, avail, err := cl.ClockUntilRecv(sess, 8192); err != nil {
						return err
					} else if !avail {
						return fmt.Errorf("session %d: no response within budget", sess)
					}
					rsp, err := cl.Recv(sess, i%2)
					if err != nil {
						return err
					}
					if !rsp.Have || rsp.Tag != uint16(i%100+1) {
						return fmt.Errorf("session %d: recv %+v", sess, rsp)
					}
					st, err := cl.Stats(sess)
					if err != nil {
						return err
					}
					if st.Devices[0].Rsps != 1 {
						return fmt.Errorf("session %d: stats %+v", sess, st.Devices[0])
					}
					return cl.CloseSession(sess)
				}(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("active = %d after churn, want 0", srv.ActiveSessions())
	}
	if got := srv.Metrics().Lookup("hmc_server_sessions_closed_total").Number(); got != sessions {
		t.Errorf("sessions_closed = %v, want %d", got, sessions)
	}
}

// TestTCPAndUnixTransports exercises the real listeners end to end.
func TestTCPAndUnixTransports(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()

	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sock := t.TempDir() + "/hmcd.sock"
	uln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(tln)
	go srv.Serve(uln)

	for _, ep := range []struct{ network, addr string }{
		{"tcp", tln.Addr().String()},
		{"unix", sock},
	} {
		cl, err := Dial(ep.network, ep.addr)
		if err != nil {
			t.Fatalf("%s: %v", ep.network, err)
		}
		sess, err := cl.Init("2gb-dev")
		if err != nil {
			t.Fatalf("%s init: %v", ep.network, err)
		}
		if cyc, err := cl.ClockN(sess, 16); err != nil || cyc != 16 {
			t.Fatalf("%s clockn: cycle=%d err=%v", ep.network, cyc, err)
		}
		if err := cl.CloseSession(sess); err != nil {
			t.Fatalf("%s close: %v", ep.network, err)
		}
		cl.Close()
	}
}

// TestServerCloseReleasesSessions shuts down with live sessions and
// in-flight clients; everything must unwind without hanging.
func TestServerCloseReleasesSessions(t *testing.T) {
	srv := New(Config{})
	here, there := net.Pipe()
	srv.ServeConn(there)
	cl := NewClient(here)
	for i := 0; i < 10; i++ {
		if _, err := cl.Init("2gb-dev"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Close()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server close hung with live sessions")
	}
	if _, err := cl.Init("2gb-dev"); err == nil {
		t.Fatal("init succeeded after server close")
	}
	if srv.Close() != nil {
		t.Fatal("second close errored")
	}
}

// TestStripesAcrossConnections drives sessions from connections other
// than the ones that opened them: four connections, eight goroutines
// each, every round a write and a read-back whose tags and data are
// checked. A fifth session is left idle until the sweeper evicts it;
// the busy ones must all survive to be closed by the goroutines that
// drive them.
func TestStripesAcrossConnections(t *testing.T) {
	const conns, workers, perWorker, minRounds = 4, 8, 2, 8
	srv := New(Config{IdleTTL: 400 * time.Millisecond})
	defer srv.Close()
	cls := make([]*Client, conns)
	for i := range cls {
		here, there := net.Pipe()
		srv.ServeConn(there)
		cls[i] = NewClient(here)
		defer cls[i].Close()
	}
	opened := make([][]uint64, conns)
	for i, cl := range cls {
		for j := 0; j < workers*perWorker; j++ {
			sess, err := cl.Init("2gb-dev")
			if err != nil {
				t.Fatal(err)
			}
			opened[i] = append(opened[i], sess)
		}
	}
	idle, err := cls[0].Init("2gb-dev")
	if err != nil {
		t.Fatal(err)
	}

	evicted := srv.Metrics().Lookup("hmc_server_sessions_evicted_total")
	wr, rd := hmccmd.WR64.Code(), hmccmd.RD64.Code()
	wrRS, _ := hmccmd.WrRS.Code()
	rdRS, _ := hmccmd.RdRS.Code()
	var wg sync.WaitGroup
	errCh := make(chan error, conns*workers)
	deadline := time.Now().Add(30 * time.Second)
	for i, cl := range cls {
		// Connection i drives the sessions connection i+1 opened.
		mine := opened[(i+1)%conns]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(cl *Client, sessions []uint64) {
				defer wg.Done()
				errCh <- func() error {
					for round := 0; round < minRounds || evicted.Number() < 1; round++ {
						if time.Now().After(deadline) {
							return fmt.Errorf("idle session not evicted after %d rounds", round)
						}
						for _, sess := range sessions {
							data := make([]uint64, 8)
							for k := range data {
								data[k] = sess<<32 | uint64(round)<<8 | uint64(k)
							}
							tag := uint16(round%1000*2 + 1)
							for _, step := range []struct {
								cmd, rsp uint8
								tag      uint16
								payload  []uint64
							}{{wr, wrRS, tag, data}, {rd, rdRS, tag + 1, nil}} {
								if acc, err := cl.Send(sess, 0, step.cmd, 0, 0x40, step.tag, step.payload); err != nil || !acc {
									return fmt.Errorf("session %d round %d: send accepted=%v err=%v", sess, round, acc, err)
								}
								if _, avail, err := cl.ClockUntilRecv(sess, 8192); err != nil || !avail {
									return fmt.Errorf("session %d round %d: avail=%v err=%v", sess, round, avail, err)
								}
								rsp, err := cl.Recv(sess, 0)
								if err != nil {
									return err
								}
								if !rsp.Have || rsp.Cmd != step.rsp || rsp.Tag != step.tag {
									return fmt.Errorf("session %d round %d: recv cmd %d tag %d, want cmd %d tag %d",
										sess, round, rsp.Cmd, rsp.Tag, step.rsp, step.tag)
								}
								if step.cmd == rd && !slices.Equal(rsp.Payload, data) {
									return fmt.Errorf("session %d round %d: read %v, wrote %v", sess, round, rsp.Payload, data)
								}
							}
						}
					}
					for _, sess := range sessions {
						if err := cl.CloseSession(sess); err != nil {
							return fmt.Errorf("busy session %d: %w", sess, err)
						}
					}
					return nil
				}()
			}(cl, mine[w*perWorker:(w+1)*perWorker])
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = cls[2].Clock(idle)
	wantCode(t, err, CodeNoSession)
	if got := evicted.Number(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Errorf("active = %d after every session closed or evicted, want 0", n)
	}
}
