package core

import (
	"errors"
	"fmt"
	"time"

	"seqstream/internal/flight"
	"seqstream/internal/invariants"
)

// Config parameterizes a Server.
type Config struct {
	// DispatchSize (D) is the number of streams allowed to generate
	// disk requests concurrently. If zero, it is derived as
	// Memory/(ReadAhead*RequestsPerStream).
	DispatchSize int
	// ReadAhead (R) is the size of every generated disk request.
	ReadAhead int64
	// RequestsPerStream (N) is how many disk requests a stream issues
	// before it is rotated out of the dispatch set.
	RequestsPerStream int
	// Memory (M) bounds the bytes held in staging buffers.
	Memory int64

	// BlockSize is the classifier granularity: one bitmap bit covers
	// one block (default 64 KB). Representing larger blocks with a
	// single bit trades detection precision for bitmap memory (§4.1).
	BlockSize int64
	// RegionBlocks is the width of a dynamically-allocated bitmap
	// region in blocks (the paper's "[B-offset, B+offset]" window, "a
	// few tens" of blocks; default 64).
	RegionBlocks int
	// DetectThreshold is the number of distinct set bits in a region
	// that declares a sequential stream (default 4).
	DetectThreshold int

	// GCPeriod is how often the garbage collector sweeps (§4.3;
	// default 1s).
	GCPeriod time.Duration
	// BufferTimeout frees a staged buffer that has not been touched
	// for this long (default 30s). Only buffers of streams with no
	// in-flight fetch and no waiting clients are collected.
	BufferTimeout time.Duration
	// StreamTimeout removes a classified stream (queue, bitmap
	// entries) that has been idle for this long (default 60s).
	StreamTimeout time.Duration
	// EvictIdle is the minimum idle time before a staged buffer may be
	// reclaimed under memory pressure (LRU, default 500ms). Pressure
	// eviction keeps abandoned prefetches from pinning M while
	// candidate streams wait.
	EvictIdle time.Duration

	// FetchTimeout fails a read-ahead fetch that has been outstanding
	// this long: its waiters receive ErrFetchTimeout, the staged buffer
	// is reclaimed, and a late device completion is ignored. Without it
	// a hung device read pins its stream — and the stream's staged
	// memory — for the life of the process, because the collector skips
	// streams with a fetch in flight. Zero disables (the default: the
	// simulator's devices always complete).
	FetchTimeout time.Duration
	// FetchRetries re-issues a failed fetch up to this many times when
	// the device error is transient (blockdev.IsTransient), with
	// exponential backoff. Zero disables retries.
	FetchRetries int
	// RetryBackoff is the delay before the first fetch retry; it
	// doubles on each subsequent attempt. Defaults to 10ms when
	// FetchRetries is set.
	RetryBackoff time.Duration

	// BreakerThreshold opens a per-disk circuit after this many
	// consecutive device failures (fetch errors, direct-read errors,
	// fetch timeouts) on one disk. While open, that disk's requests
	// fail fast with ErrDiskDegraded and its streams leave the dispatch
	// set, so the remaining disks keep full dispatch — graceful
	// degradation with M ≥ D·R·N still enforced on the healthy set.
	// Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects requests
	// before letting traffic probe the disk again; the first device
	// success closes the circuit, the first failure re-opens it.
	// Defaults to 5s when the breaker is enabled.
	BreakerCooldown time.Duration

	// Policy picks the next stream admitted to the dispatch set. Nil
	// uses the paper's round-robin. With more than one shard the policy
	// is consulted concurrently from several shards; the built-in
	// policies are stateless and safe, custom implementations must be
	// too.
	Policy DispatchPolicy

	// Shards is the number of scheduler shards the disks are divided
	// over. Zero (the default) gives every disk its own shard; values
	// above the disk count are clamped. Shards = 1 reproduces the old
	// single-lock scheduler and exists for A/B benchmarking.
	Shards int

	// NearSeqWindow, when positive, lets a request join a classified
	// stream whose expected offset is within this many bytes — the
	// near-sequential streams §4.1 leaves as future work (players that
	// skip container metadata, stride readers). Skipped ranges count
	// as consumed; zero keeps the paper's strict in-order matching.
	NearSeqWindow int64

	// Obs, when non-nil, feeds the scheduler's metric families and
	// (optionally) a stream-lifecycle span log. Build it with NewObs
	// over a shared obs.Registry.
	Obs *Obs

	// Flight, when non-nil, is the always-on flight recorder: each
	// scheduler shard stamps its lifecycle events onto ring
	// Flight.Ring(shard index), so a recorder with one ring per shard
	// keeps shard timelines contention-free. Recording is lock-free and
	// allocation-free; see package flight.
	Flight *flight.Recorder

	// Replicas is the replication factor of the data layout: every
	// disk's data is also readable from Replicas-1 mirror disks, chosen
	// at placement time by blockdev.ReplicaDisks. Refcounted bufpool
	// staging is unchanged — a fetch reads from exactly one replica at
	// a time (plus at most one speculative duplicate). 0 and 1 both
	// mean no replication; values above the disk count are rejected at
	// NewServer. Replication is what straggler steering and speculative
	// reads route across, so both require Replicas >= 2.
	Replicas int

	// SteerFactor, when positive, turns on straggler-aware dispatch: a
	// stream's next fetch is routed to its fastest healthy replica when
	// the primary's fetch EWMA exceeds SteerFactor times that replica's
	// (a soft analog of diskBlocked for slow-but-alive disks), and the
	// dispatch rotation deprioritizes candidates on such disks when
	// faster candidates are waiting. Disks with no samples yet are
	// never ranked (an unseeded EWMA reads zero). Requires Replicas >=
	// 2 and WindowSpan > 0; zero disables steering.
	SteerFactor float64

	// SpecQuantile, when positive, turns on speculative re-issue: an
	// in-flight fetch that has been outstanding longer than this
	// quantile of its disk's windowed fetch latency (not a fixed
	// deadline) is duplicated on a replica; the first completion wins
	// and the loser's buffer is released through the timeout-safe
	// checkout path. Typical values are 0.9..0.99. Requires Replicas >=
	// 2 and WindowSpan > 0; zero disables speculation.
	SpecQuantile float64
	// SpecMinSamples is how many samples the disk's fetch window must
	// hold before its quantile is trusted as a speculation trigger
	// (default 8); below it fetches run unduplicated.
	SpecMinSamples int
	// SpecMinDelay floors the speculation trigger delay (default 1ms),
	// so sub-millisecond latency quantiles on fast devices do not arm
	// a timer per fetch that fires before the read has a chance to
	// complete.
	SpecMinDelay time.Duration

	// SLOTarget, when positive, attaches the SLO engine (package slo):
	// every request gets a delivery deadline derived from SLOTarget and
	// the classified rate R (a full read-ahead is due SLOTarget after
	// submission, shorter requests proportionally sooner), every
	// delivery is scored on-time/late/missed on the shard completion
	// path, and the scores feed per-stream/per-disk/node SLIs plus
	// multi-window burn-rate alerts (see Server.SLO). Zero disables the
	// engine entirely.
	SLOTarget time.Duration
	// SLOLateFactor marks the late/missed boundary: a delivery beyond
	// SLOLateFactor times its deadline counts missed (default
	// slo.DefaultLateFactor).
	SLOLateFactor float64
	// SLOObjective is the on-time delivery objective in (0, 1) the burn
	// rates measure against (default slo.DefaultObjective, 0.999).
	SLOObjective float64
	// SLOFastWindow/SLOMidWindow/SLOSlowWindow are the burn-rate
	// horizons: the fast (paging) alert requires both the fast and mid
	// windows to burn past slo.DefaultFastBurn (14.4), the slow
	// (ticket) alert watches the slow window against
	// slo.DefaultSlowBurn (6). Defaults 5m/1h/6h.
	SLOFastWindow time.Duration
	SLOMidWindow  time.Duration
	SLOSlowWindow time.Duration
	// SLOMinSamples gates alerting on burn-window population (default
	// slo.DefaultMinSamples).
	SLOMinSamples int64

	// WindowSpan, when positive, attaches sliding-window latency
	// telemetry (see LatencyWindows): request latency node-wide and
	// fetch latency node-wide plus per disk, observed beside the
	// cumulative Obs histograms but covering only the last WindowSpan
	// of traffic, in obs.DefaultWindowBuckets ring slots (a 60s window
	// rotates a 5s slot). Independent of Obs so the health engine can
	// run with metrics off; zero disables windows entirely.
	WindowSpan time.Duration
}

// DefaultConfig returns the §5 defaults for a node with the given
// memory budget and read-ahead; D is derived from M = D*R*N with N=1.
func DefaultConfig(memory, readAhead int64) Config {
	cfg := Config{
		ReadAhead:         readAhead,
		RequestsPerStream: 1,
		Memory:            memory,
	}
	cfg.ApplyDefaults()
	return cfg
}

// ApplyDefaults fills zero fields with the defaults described on each
// field, deriving D from M when unset.
func (c *Config) ApplyDefaults() {
	if c.RequestsPerStream == 0 {
		c.RequestsPerStream = 1
	}
	if c.DispatchSize == 0 && c.ReadAhead > 0 && c.RequestsPerStream > 0 {
		c.DispatchSize = DeriveDispatch(c.Memory, c.ReadAhead, c.RequestsPerStream)
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 10
	}
	if c.RegionBlocks == 0 {
		c.RegionBlocks = 64
	}
	if c.DetectThreshold == 0 {
		c.DetectThreshold = 4
	}
	if c.GCPeriod == 0 {
		c.GCPeriod = time.Second
	}
	if c.BufferTimeout == 0 {
		c.BufferTimeout = 30 * time.Second
	}
	if c.StreamTimeout == 0 {
		c.StreamTimeout = 60 * time.Second
	}
	if c.EvictIdle == 0 {
		c.EvictIdle = 500 * time.Millisecond
	}
	if c.FetchRetries > 0 && c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Policy == nil {
		c.Policy = RoundRobin{}
	}
	if c.SpecQuantile > 0 {
		if c.SpecMinSamples == 0 {
			c.SpecMinSamples = 8
		}
		if c.SpecMinDelay == 0 {
			c.SpecMinDelay = time.Millisecond
		}
	}
}

// DeriveDispatch returns the largest D satisfying M >= D*R*N, at least 1.
func DeriveDispatch(memory, readAhead int64, n int) int {
	if readAhead <= 0 || n <= 0 {
		return 1
	}
	d := memory / (readAhead * int64(n))
	if d < 1 {
		d = 1
	}
	// §4.3: a derived dispatch set must satisfy M ≥ D·R·N (D = 1 is
	// the floor even when memory cannot hold one full residency).
	invariants.Check(d == 1 || d*readAhead*int64(n) <= memory,
		"derived D=%d violates M >= D*R*N (M=%d R=%d N=%d)", d, memory, readAhead, n)
	return int(d)
}

// Validate reports configuration errors. It does not mutate the
// config; call ApplyDefaults first for partially-specified configs.
func (c Config) Validate() error {
	switch {
	case c.DispatchSize <= 0:
		return errors.New("core: dispatch size (D) must be positive")
	case c.ReadAhead <= 0:
		return errors.New("core: read-ahead (R) must be positive")
	case c.RequestsPerStream <= 0:
		return errors.New("core: requests per stream (N) must be positive")
	case c.Memory < c.ReadAhead:
		return fmt.Errorf("core: memory (M=%d) must hold at least one read-ahead buffer (R=%d)", c.Memory, c.ReadAhead)
	case c.BlockSize <= 0:
		return errors.New("core: block size must be positive")
	case c.RegionBlocks <= 1:
		return errors.New("core: region must span at least 2 blocks")
	case c.DetectThreshold < 2:
		return errors.New("core: detection threshold must be at least 2")
	case c.DetectThreshold > c.RegionBlocks:
		return errors.New("core: detection threshold exceeds region width")
	case c.GCPeriod <= 0 || c.BufferTimeout <= 0 || c.StreamTimeout <= 0 || c.EvictIdle <= 0:
		return errors.New("core: GC periods must be positive")
	case c.Policy == nil:
		return errors.New("core: nil dispatch policy")
	case c.NearSeqWindow < 0:
		return errors.New("core: near-sequential window must be >= 0")
	case c.FetchTimeout < 0:
		return errors.New("core: fetch timeout must be >= 0")
	case c.FetchRetries < 0:
		return errors.New("core: fetch retries must be >= 0")
	case c.FetchRetries > 0 && c.RetryBackoff <= 0:
		return errors.New("core: retry backoff must be positive with retries enabled")
	case c.BreakerThreshold < 0:
		return errors.New("core: breaker threshold must be >= 0")
	case c.BreakerThreshold > 0 && c.BreakerCooldown <= 0:
		return errors.New("core: breaker cooldown must be positive with the breaker enabled")
	case c.Shards < 0:
		return errors.New("core: shard count must be >= 0")
	case c.WindowSpan < 0:
		return errors.New("core: window span must be >= 0")
	case c.Replicas < 0:
		return errors.New("core: replicas must be >= 0")
	case c.SteerFactor < 0:
		return errors.New("core: steer factor must be >= 0")
	case c.SteerFactor > 0 && c.Replicas < 2:
		return errors.New("core: steering requires Replicas >= 2")
	case c.SteerFactor > 0 && c.WindowSpan <= 0:
		return errors.New("core: steering requires WindowSpan > 0 (EWMA/window telemetry)")
	case c.SpecQuantile < 0 || c.SpecQuantile >= 1:
		return errors.New("core: speculation quantile must be in [0, 1)")
	case c.SpecQuantile > 0 && c.Replicas < 2:
		return errors.New("core: speculation requires Replicas >= 2")
	case c.SpecQuantile > 0 && c.WindowSpan <= 0:
		return errors.New("core: speculation requires WindowSpan > 0 (windowed quantiles)")
	case c.SpecMinSamples < 0:
		return errors.New("core: speculation min samples must be >= 0")
	case c.SpecMinDelay < 0:
		return errors.New("core: speculation min delay must be >= 0")
	case c.SLOTarget < 0:
		return errors.New("core: SLO target must be >= 0")
	case c.SLOLateFactor < 0 || c.SLOObjective < 0 || c.SLOMinSamples < 0:
		return errors.New("core: SLO parameters must be >= 0")
	case c.SLOFastWindow < 0 || c.SLOMidWindow < 0 || c.SLOSlowWindow < 0:
		return errors.New("core: SLO burn-rate windows must be >= 0")
	}
	return nil
}
