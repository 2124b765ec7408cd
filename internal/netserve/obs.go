package netserve

import (
	"time"

	"seqstream/internal/obs"
)

// Obs mirrors ServerStats into a metric registry and adds what the
// aggregate counters cannot express: a gauge of open connections and a
// latency histogram over the storage node's per-request service time
// (core.Response End − Start, so it measures the node, not the
// network). Instruments are atomic; the /metrics scraper never takes
// the server lock.
type Obs struct {
	conns     *obs.Counter
	requests  *obs.Counter
	errors    *obs.Counter
	readBytes *obs.Counter
	dropped   *obs.Counter

	openConns *obs.Gauge

	requestLatency *obs.Histogram

	// window, when attached, mirrors requestLatency over a sliding
	// window for the health rollup. Written before serving starts,
	// read by connection goroutines; Observe is nil-safe so the
	// unattached case costs one nil check.
	window *obs.WindowedHistogram

	// sloDeadline, when attached, scores each successful wire response
	// against the storage node's deadline model from the client's side
	// of the socket: what the scheduler promised versus what the wire
	// observed. Written before serving starts, like window.
	sloDeadline   func(length int64) time.Duration
	sloOnTime     *obs.Counter
	sloViolations *obs.Counter
}

// NewObs registers the netserve metric families on reg. Registration
// is idempotent.
func NewObs(reg *obs.Registry) *Obs {
	return &Obs{
		conns:     reg.Counter("seqstream_netserve_connections_total", "client connections accepted"),
		requests:  reg.Counter("seqstream_netserve_requests_total", "wire requests decoded"),
		errors:    reg.Counter("seqstream_netserve_errors_total", "requests rejected before reaching the node, and connections ended by a protocol error"),
		readBytes: reg.Counter("seqstream_netserve_read_bytes_total", "payload bytes served to clients"),
		dropped:   reg.Counter("seqstream_netserve_dropped_responses_total", "responses discarded because their connection had died"),

		openConns: reg.Gauge("seqstream_netserve_open_connections", "currently connected clients"),

		requestLatency: reg.Histogram("seqstream_netserve_request_latency_seconds", "storage-node service time per wire request"),
	}
}

// AttachWindow adds a sliding-window view of the per-request service
// time, registered on reg as
// seqstream_netserve_request_latency_window_seconds. Call it before
// the server starts accepting connections (like SetObs, the field is
// not synchronized against in-flight requests).
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
// (*slo.Ledger).Deadline) and counted on-time or violated. These are
// the counters an external probe would produce — they include queueing
// and completion-path time the scheduler-side ledger scores too, so
// the two views should track each other; divergence means time is
// being lost between the shard completion path and the wire. Call
// before the server starts accepting connections.
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

// SetObs attaches instruments to the server; nil detaches. The
// pointer is snapshotted per connection at accept time, so attach
// before clients connect to instrument them.
func (s *Server) SetObs(o *Obs) { s.obs.Store(o) }
