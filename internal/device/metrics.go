package device

import (
	"strconv"

	"repro/internal/hmccmd"
	"repro/internal/metrics"
)

// RegisterMetrics registers the device's observability surface with a
// metrics registry, labeled by device ID:
//
//   - Lifetime counters over Stats (cycles, per-class executed requests,
//     responses, stalls, backpressure, bank conflicts, retries, row-model
//     outcomes, link FLITs by direction) as CounterFuncs — closures read
//     at scrape/sample time, so registering them adds nothing to the
//     clock hot path.
//   - Instantaneous queue occupancies: per-link request/response gauges,
//     the summed and maximum vault request-queue occupancy.
//   - Two push histograms, fed by an observer RegisterMetrics attaches
//     (Observe): per-class end-to-end request latency at Recv
//     (hmc_request_latency_cycles) and the length of each completed link
//     retry sequence (hmc_link_retry_latency_cycles). Observe is a few
//     atomic ops, so the push path allocates nothing.
//
// The Func closures read simulator state without synchronization:
// scrapes concurrent with a running clock see approximate values (exact
// once the run is idle). Instruments are get-or-create by name and
// labels, so registering a second device with the same ID into one
// registry does not panic: the registry silently keeps reading the first
// device's closures, and both devices feed the same histograms. Give
// each simulator its own registry (sim.WithMetrics asks for that).
func (d *Device) RegisterMetrics(reg *metrics.Registry) {
	dev := metrics.L("dev", strconv.Itoa(d.ID))
	h := &histSink{d: d}

	reg.CounterFunc("hmc_device_cycles_total", func() uint64 { return d.stats.Cycles }, dev)
	for c := 0; c < hmccmd.NumClasses; c++ {
		class := hmccmd.Class(c)
		reg.CounterFunc(metrics.NameRqsts,
			func() uint64 { return d.stats.Rqsts[class] },
			dev, metrics.L("class", class.String()))
		h.latency[c] = reg.Histogram("hmc_request_latency_cycles",
			dev, metrics.L("class", class.String()))
	}
	reg.CounterFunc("hmc_device_rsps_total", func() uint64 { return d.stats.Rsps }, dev)
	reg.CounterFunc("hmc_device_send_stalls_total", func() uint64 { return d.stats.SendStalls }, dev)
	reg.CounterFunc("hmc_device_bank_conflicts_total", func() uint64 { return d.stats.BankConflicts }, dev)
	reg.CounterFunc("hmc_device_xbar_backpressure_total", func() uint64 { return d.stats.XbarBackpressure }, dev)
	reg.CounterFunc("hmc_device_rsp_backpressure_total", func() uint64 { return d.stats.RspBackpressure }, dev)
	reg.CounterFunc("hmc_device_link_ser_stalls_total", func() uint64 { return d.stats.LinkSerStalls }, dev)
	reg.CounterFunc("hmc_device_link_retries_total", func() uint64 { return d.stats.LinkRetries }, dev)
	reg.CounterFunc("hmc_device_row_hits_total", func() uint64 { return d.stats.RowHits }, dev)
	reg.CounterFunc("hmc_device_row_misses_total", func() uint64 { return d.stats.RowMisses }, dev)
	reg.CounterFunc("hmc_device_err_responses_total", func() uint64 { return d.stats.ErrResponses }, dev)
	reg.CounterFunc("hmc_device_crc_errors_total", func() uint64 { return d.stats.CRCErrors }, dev)
	reg.CounterFunc("hmc_device_drops_total", func() uint64 { return d.stats.Drops }, dev)
	reg.CounterFunc("hmc_device_link_down_windows_total", func() uint64 { return d.stats.DownWindows }, dev)
	reg.CounterFunc("hmc_device_retry_buffer_stalls_total", func() uint64 { return d.stats.RetryBufStalls }, dev)
	reg.CounterFunc("hmc_device_poisoned_rqsts_total", func() uint64 { return d.stats.PoisonedRqsts }, dev)
	h.retry = reg.Histogram("hmc_link_retry_latency_cycles", dev)
	reg.CounterFunc(metrics.NameLinkFlits, func() uint64 { return d.stats.RqstFlits }, dev, metrics.L("dir", "rqst"))
	reg.CounterFunc(metrics.NameLinkFlits, func() uint64 { return d.stats.RspFlits }, dev, metrics.L("dir", "rsp"))

	// An unbuilt port holds no packet; the gauges read it without
	// building it.
	for i := range d.ports {
		link := metrics.L("link", strconv.Itoa(i))
		reg.GaugeFunc(metrics.NameLinkRqstOcc, func() float64 {
			if p := d.ports[i]; p != nil {
				return float64(p.rqst.Len())
			}
			return 0
		}, dev, link)
		reg.GaugeFunc(metrics.NameLinkRspOcc, func() float64 {
			if p := d.ports[i]; p != nil {
				return float64(p.rsp.Len())
			}
			return 0
		}, dev, link)
	}
	// An unbuilt vault holds no request.
	reg.GaugeFunc(metrics.NameVaultOccTotal, func() float64 {
		total := 0
		for _, v := range d.vaults {
			if v != nil {
				total += v.rqst.Len()
			}
		}
		return float64(total)
	}, dev)
	reg.GaugeFunc("hmc_vault_rqst_occupancy_max", func() float64 {
		m := 0
		for _, v := range d.vaults {
			if v != nil {
				m = max(m, v.rqst.Len())
			}
		}
		return float64(m)
	}, dev)
	d.Observe(h)
}

// histSink is the observer feeding a device's two push histograms.
type histSink struct {
	d       *Device
	latency [hmccmd.NumClasses]*metrics.Histogram
	retry   *metrics.Histogram
}

// Observe records a response's send-to-recv cycles under its request's
// class, and a finished retry sequence's length.
func (h *histSink) Observe(e Event) {
	switch e.Stage {
	case StageRecv:
		f := e.Flight
		h.latency[f.Rqst.Cmd.InfoRef().Class].Observe(h.d.cycle - f.SendCycle)
	case StageRetryDone:
		h.retry.Observe(uint64(e.Arg))
	}
}
