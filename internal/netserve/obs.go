package netserve

import (
	"sync/atomic"
	"time"

	"seqstream/internal/obs"
)

// Obs holds the wire layer's instruments: a gauge of open connections
// and a latency histogram over the storage node's per-request service
// time, core.Response End − Start. That measures the node, not the
// network or the connection's writer, and is zero for a staged hit,
// whose End is its Start. The counter families are not instruments:
// SetObs registers each as a scrape-time read of the server's own
// counters (Server.Stats), so there is one count per fact and a
// request bumps no second copy. Instruments are atomic; the /metrics
// scraper never takes the server lock.
type Obs struct {
	// reg is retained so SetObs can register the counter families of
	// the server the instruments attach to.
	reg *obs.Registry

	openConns *obs.Gauge

	requestLatency *obs.Histogram

	// window, when attached, mirrors requestLatency over a sliding
	// window for the health rollup. Written before serving starts,
	// read by connection goroutines; ObserveAt is nil-safe so the
	// unattached case costs one nil check.
	window *obs.WindowedHistogram

	// sloDeadline, when attached, scores each successful wire response
	// against the storage node's deadline model. Written before serving
	// starts, like window.
	sloDeadline   func(length int64) time.Duration
	sloOnTime     *obs.Counter
	sloViolations *obs.Counter
}

// NewObs registers the netserve gauge and histogram families on reg;
// SetObs registers the counter families. Registration is idempotent.
func NewObs(reg *obs.Registry) *Obs {
	return &Obs{
		reg: reg,

		openConns: reg.Gauge("seqstream_netserve_open_connections", "currently connected clients"),

		requestLatency: reg.Histogram("seqstream_netserve_request_latency_seconds", "storage-node service time per wire request"),
	}
}

// registerServer exposes s's counters as scrape-time families, one per
// ServerStats field. A later server over the same registry takes the
// families over; they keep its predecessor's totals.
func (o *Obs) registerServer(s *Server) {
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"seqstream_netserve_connections_total", "client connections accepted", &s.stats.conns},
		{"seqstream_netserve_requests_total", "wire requests decoded", &s.stats.requests},
		{"seqstream_netserve_errors_total", "requests rejected before reaching the node, and connections ended by a protocol error", &s.stats.errors},
		{"seqstream_netserve_read_bytes_total", "payload bytes served to clients", &s.stats.bytesRead},
		{"seqstream_netserve_dropped_responses_total", "responses discarded because their connection had died", &s.stats.dropped},
	} {
		o.reg.CounterFunc(c.name, c.help, c.v.Load)
	}
}

// AttachWindow adds a sliding-window view of the per-request service
// time, registered on reg as
// seqstream_netserve_request_latency_window_seconds. now must be the
// storage node's clock: each sample is slotted at its response's End,
// the node's reading, so a wire request reads no clock for the window.
// Call it before the server starts accepting connections (like SetObs,
// the field is not synchronized against in-flight requests).
func (o *Obs) AttachWindow(reg *obs.Registry, now func() time.Duration, span time.Duration) error {
	w, err := obs.NewWindowedHistogram(now, span, 0)
	if err != nil {
		return err
	}
	o.window = w
	reg.Window("seqstream_netserve_request_latency_window_seconds",
		"storage-node service time per wire request over the sliding window", w)
	return nil
}

// AttachSLO adds wire-level delivery scoring: each successful response
// is checked against the node's deadline model (core exposes it via
// (*slo.Ledger).Deadline) and counted on-time or violated. The score
// is the request histogram's quantity, core's Response End − Start, so
// it counts per wire response what the scheduler-side ledger scores
// per delivery; time in the connection's writer and on the network is
// not in it, and a staged hit scores zero. Call before the server
// starts accepting connections.
func (o *Obs) AttachSLO(reg *obs.Registry, deadline func(length int64) time.Duration) {
	o.sloDeadline = deadline
	o.sloOnTime = reg.Counter("seqstream_netserve_slo_on_time_total",
		"wire responses delivered within the stream deadline model")
	o.sloViolations = reg.Counter("seqstream_netserve_slo_violations_total",
		"wire responses delivered past the stream deadline model")
}

// scoreSLO counts one successful response against the deadline model.
// Nil-safe: without AttachSLO it is a single nil check.
func (o *Obs) scoreSLO(length int64, lat time.Duration) {
	if o == nil || o.sloDeadline == nil {
		return
	}
	if lat > o.sloDeadline(length) {
		o.sloViolations.Inc()
	} else {
		o.sloOnTime.Inc()
	}
}

// SetObs attaches instruments to the server; nil detaches them. The
// pointer is snapshotted per connection at accept time, so attach
// before clients connect to instrument them. Attaching an Obs over a
// registry other than the last one attached also registers the
// server's counter families there, as scrape-time reads of the
// counters behind Stats; they stay registered when the instruments
// are detached.
func (s *Server) SetObs(o *Obs) {
	if o != nil {
		s.mu.Lock()
		if s.obsReg != o.reg {
			s.obsReg = o.reg
			o.registerServer(s)
		}
		s.mu.Unlock()
	}
	s.obs.Store(o)
}
