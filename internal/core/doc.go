// Package core implements the paper's host-level solution (§4): a
// storage-node server that transparently identifies sequential streams
// (classifier), coalesces their small client requests into large
// read-ahead disk requests issued from a bounded dispatch set
// (scheduler), and stages prefetched data in host memory until it is
// consumed (buffered set).
//
// The four tunables the paper names are exposed directly:
//
//	D — DispatchSize: streams generating disk I/O at a time
//	R — ReadAhead:    bytes per generated disk request
//	N — RequestsPerStream: disk requests a stream issues per residency
//	M — Memory:       host bytes available for staging buffers
//
// with the invariant M ≥ D·R·N (§4.3).
//
// # Sharding and ownership
//
// The scheduler is sharded per disk: Server routes each request to
// shards[disk % NumShards()], and everything request-scoped — the
// classifier state, candidate queue, dispatched set, staged buffers,
// per-disk fairness counters, circuit breakers, and GC cursor — is
// owned by exactly one shard and touched only under that shard's
// mutex. Shards never lock each other; Config.Shards = 1 collapses
// the layout back to a single lock for A/B comparison.
//
// The paper's global bounds survive sharding as lock-free accounting
// on Server: the staging-memory budget M and the dispatch budget D
// are CAS-reserved atomics (memReserve/slotAcquire), and gauges such
// as live streams and degraded disks are plain atomic counters. A
// shard that loses a budget race marks itself blocked and returns;
// whoever releases budget schedules a repump pass that revisits
// blocked shards one lock at a time. When a shard starves on memory
// with no local victim, the pass runs a two-phase cross-shard
// eviction: scan every shard's LRU candidate under its own lock, then
// re-lock only the chosen victim's shard to evict. A shard whose idle
// floor (a lower bound on its buffers' last activity) shows nothing
// idle for EvictIdle answers without a scan.
//
// # Locking rules
//
// Lock ordering is flat: at most one shard mutex is held at a time,
// except Snapshot, which locks all shards in index order for a
// consistent cut. Completion callbacks, device I/O, and the buffer
// pool are never invoked with a shard lock held — completions are
// batched under the lock and delivered after it is dropped. The
// section that queued them takes them before it unlocks, so a staged
// hit, which queues only its own completion, holds its shard lock once.
// Direct reads and failed requests complete through the same batch,
// never through the clock: on a device that completes inline, a
// direct read is done when Submit returns.
//
// Device completions reach the shard through a second, smaller batch
// layer: each completion enqueues onto a per-shard queue guarded by
// its own leaf mutex (never held together with the shard lock), and a
// CAS-elected reaper drains up to 32 completions per shard-lock
// acquisition, running the delivery flush once per batch. Under the
// simulator the engine thread reaps inline in FIFO order, so event
// sequences are unchanged.
//
// # Staging buffers
//
// When the device implements blockdev.ReaderInto, staging buffers
// come from a size-classed, reference-counted bufpool.Pool instead of
// per-fetch allocation; responses borrow the pooled bytes and return
// them via Response.Release. A fetch abandoned by timeout keeps its
// buffer checked out until the device's late completion, since the
// device may still be writing into it.
//
// A consumer that needs the bytes to outlive its done callback — the
// payload wire path — takes over the reference wholesale with
// Response.TakeBuf instead of copying: the response's Data keeps
// aliasing the buffer, the scheduler's reference is detached, and the
// taker owes the pool exactly one Release after its last use (for the
// wire, after the vectored write drains). TakeBuf plus Release-on-nil
// make the hand-off exactly-once on every path, including errors.
package core
