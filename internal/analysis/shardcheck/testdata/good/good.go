// Fixture: guarded-field access patterns shardcheck must accept.
package shardfixture

import "sync"

type shard struct {
	mu sync.Mutex

	streams map[int]int //lint:guardedby mu
	//lint:guardedby mu
	memUsed int64

	hot int // unguarded: free access
}

// Lock/Unlock brackets the access.
func (sh *shard) touch(id int) {
	sh.mu.Lock()
	sh.streams[id]++
	sh.mu.Unlock()
}

// A deferred unlock holds the lock to the end.
func (sh *shard) account(n int64) int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.memUsed += n
	return sh.memUsed
}

// The caller-holds contract is declared, not guessed.
//
//lint:holds mu
func (sh *shard) evictLocked(id int) {
	delete(sh.streams, id)
	sh.memUsed = 0
}

// Holds-annotated helpers may call through to other annotated code.
//
//lint:holds mu
func (sh *shard) resetLocked() {
	sh.evictLocked(0)
}

// Unguarded fields need no lock.
func (sh *shard) poke() {
	sh.hot++
}

// Both branches keep the lock: the intersection holds it at the use.
func (sh *shard) branchy(cold bool) {
	sh.mu.Lock()
	if cold {
		sh.memUsed = 0
	} else {
		sh.memUsed++
	}
	sh.streams[0] = int(sh.memUsed)
	sh.mu.Unlock()
}

// A value under construction is not yet shared.
func newShard() *shard {
	sh := &shard{streams: make(map[int]int)}
	sh.memUsed = 0
	return sh
}

// Suppression for documented exceptions.
func (sh *shard) snapshotRacy() int64 {
	return sh.memUsed //lint:allow shardcheck read is advisory, torn values acceptable
}

// A releasing method is entered holding the lock.
//
//lint:releases mu
func (sh *shard) unlockAndFlush() {
	sh.memUsed = 0
	sh.mu.Unlock()
}

// Guarded accesses before the releasing call are covered.
func (sh *shard) submit() {
	sh.mu.Lock()
	sh.memUsed++
	sh.unlockAndFlush()
}
