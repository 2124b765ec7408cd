package core

import "seqstream/internal/flight"

// Batched device-completion reaping.
//
// Device completions (fetches and direct reads) used to take the
// shard lock one at a time, straight from whatever goroutine the
// device invoked the callback on. With many disks completing
// concurrently that is one lock handoff — and one wakeup of a parked
// waiter — per completion. The reaper amortizes both the same way
// the completion flush batches delivery: callbacks enqueue their
// completion on a small leaf-locked queue, and the first caller to
// arrive drains the queue in bounded batches (completionBatch per
// shard-lock hold) while later callers enqueue and return
// immediately.
//
// Ordering stays deterministic under the simulator: its single
// engine thread enqueues and immediately reaps, so completions are
// processed inline in FIFO arrival order, exactly as before. Under
// real concurrency the queue is FIFO per shard and the batch
// boundary only changes when the lock is released, not the order
// completions are observed in.

// completion is one queued device completion awaiting the reaper: a
// direct read (dc) or a fetch (st, b).
type completion struct {
	dc   *directCall
	st   *stream
	b    *buffer
	data []byte
	err  error
}

// completionBatch bounds how many queued completions the reaper
// processes per shard-lock hold.
const completionBatch = 32

// enqueueCompletion queues one device completion and reaps the queue
// unless another goroutine already is. Callable from any goroutine;
// no locks held.
func (sh *shard) enqueueCompletion(c completion) {
	sh.compMu.Lock()
	sh.compQ = append(sh.compQ, c)
	sh.compMu.Unlock()
	sh.reapCompletions()
}

// takeCompletions moves up to completionBatch queued completions
// into the recycled batch slice, returning nil when the queue is
// empty.
func (sh *shard) takeCompletions() []completion {
	sh.compMu.Lock()
	n := len(sh.compQ)
	if n == 0 {
		sh.compMu.Unlock()
		return nil
	}
	if n > completionBatch {
		n = completionBatch
	}
	batch := append(sh.compSpare[:0], sh.compQ[:n]...)
	sh.compSpare = nil
	rest := copy(sh.compQ, sh.compQ[n:])
	clear(sh.compQ[rest:])
	sh.compQ = sh.compQ[:rest]
	sh.compMu.Unlock()
	return batch
}

// recycleCompletions returns a drained batch slice for reuse.
// Under concurrent reaps a slice may be dropped to the garbage
// collector instead, which is only a missed reuse.
func (sh *shard) recycleCompletions(batch []completion) {
	clear(batch)
	sh.compMu.Lock()
	if sh.compSpare == nil {
		sh.compSpare = batch[:0]
	}
	sh.compMu.Unlock()
}

// reapCompletions drains the completion queue: each batch is
// processed under one shard-lock hold, then flushed (device calls
// and batched deliveries the handlers queued), then the next batch
// is taken, until the queue is empty. Exactly one goroutine reaps at
// a time; the CAS handoff below closes the race where an enqueuer
// saw the flag still set just as the reaper observed an empty queue.
func (sh *shard) reapCompletions() {
	if !sh.reaping.CompareAndSwap(false, true) {
		return // the running reaper picks the entry up
	}
	for {
		batch := sh.takeCompletions()
		if batch == nil {
			sh.reaping.Store(false)
			// An enqueue between the empty check and the flag store
			// would otherwise strand its completion: re-check, and
			// resume only if we win the flag back.
			sh.compMu.Lock()
			again := len(sh.compQ) > 0
			sh.compMu.Unlock()
			if again && sh.reaping.CompareAndSwap(false, true) {
				continue
			}
			return
		}
		sh.mu.Lock()
		if sh.fr != nil && len(batch) > 1 {
			sh.fr.Record(flight.Event{Op: flight.OpReap, Stream: flight.NoStream,
				Length: int64(len(batch)), T: sh.srv.clock.Now()})
		}
		for i := range batch {
			c := &batch[i]
			if c.dc != nil {
				sh.onDirectDoneLocked(c.dc, c.data, c.err)
			} else {
				sh.onFetchDoneLocked(c.st, c.b, c.data, c.err)
			}
		}
		sh.unlockAndFlush()
		sh.recycleCompletions(batch)
	}
}
