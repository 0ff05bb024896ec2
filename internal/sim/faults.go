package sim

import (
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/packet"
)

// ErrRetryTimeout reports a SendWithRetry call that exhausted its cycle
// budget without the link accepting the request.
var ErrRetryTimeout = errors.New("sim: send retry budget exhausted")

// WithFaults installs a random link-fault environment on every device:
// each link direction derives a deterministic injector stream from the
// plan's seed (see fault.Plan), so two runs with the same seed, workload
// and configuration inject the exact same fault sequence. A disabled
// plan (Rate 0) is a no-op — the clock loop stays on the zero-fault fast
// path, bit-identical in stats to a simulator built without the option.
func WithFaults(p fault.Plan) Option {
	return func(o *options) { o.faultPlan = &p }
}

// maxSendBackoff caps SendWithRetry's exponential backoff: once waits
// reach this many cycles per attempt they stop growing, so a long stall
// is polled often enough to catch the queue draining.
const maxSendBackoff = 64

// SendWithRetry submits a request like Send, but absorbs HMC_STALL
// rejections with bounded exponential backoff: after each rejection the
// simulation clocks forward 1, 2, 4, ... (capped) cycles before the next
// attempt, giving the device time to drain, until the request is
// accepted or maxCycles of backoff have elapsed — then ErrRetryTimeout.
// Non-stall errors return immediately. Responses arriving during the
// backoff remain queued on their links for the caller to Recv.
//
// This is the host half of the reliability story: link-level faults are
// recovered by the device's retry buffers (retransmission never re-runs
// an operation), while congestion at the host boundary is recovered
// here — re-submitting a request the device never accepted is always
// safe.
func (s *Simulator) SendWithRetry(link int, r *packet.Rqst, maxCycles int) error {
	backoff := 1
	waited := 0
	for {
		err := s.Send(link, r)
		if err == nil {
			return nil
		}
		if !errors.Is(err, device.ErrStall) {
			return err
		}
		if waited >= maxCycles {
			return fmt.Errorf("%w: link %d tag %d after %d cycles", ErrRetryTimeout, link, r.TAG, waited)
		}
		step := backoff
		if waited+step > maxCycles {
			step = maxCycles - waited
		}
		for i := 0; i < step; i++ {
			s.Clock()
		}
		waited += step
		if backoff < maxSendBackoff {
			backoff <<= 1
		}
	}
}
