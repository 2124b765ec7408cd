// Fixture: guarded-field violations shardcheck must catch.
package shardfixture

import "sync"

type shard struct {
	mu sync.Mutex

	streams map[int]int //lint:guardedby mu
	//lint:guardedby mu
	memUsed int64
}

// No lock at all.
func (sh *shard) bareRead(id int) int {
	return sh.streams[id] // want "without holding sh.mu"
}

// The lock was already dropped.
func (sh *shard) afterUnlock(n int64) {
	sh.mu.Lock()
	sh.streams[0] = 1
	sh.mu.Unlock()
	sh.memUsed += n // want "without holding sh.mu"
}

// One branch unlocks early: the join no longer holds the lock on
// every path.
func (sh *shard) earlyUnlock(cold bool) {
	sh.mu.Lock()
	if cold {
		sh.mu.Unlock()
	}
	sh.memUsed++ // want "without holding sh.mu"
	if !cold {
		sh.mu.Unlock()
	}
}

// Closures run after the critical section: the captured access needs
// its own locking.
func (sh *shard) callback(run func(func())) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	run(func() {
		sh.memUsed++ // want "without holding sh.mu"
	})
}

// Locking a different shard's mutex does not cover this one.
func crossShard(a, b *shard) {
	a.mu.Lock()
	b.memUsed++ // want "access to b.memUsed without holding b.mu"
	a.mu.Unlock()
}

//lint:releases mu
func (sh *shard) unlockAndFlush() {
	sh.mu.Unlock()
}

// A call to a //lint:releases method ends the hold.
func (sh *shard) afterRelease() {
	sh.mu.Lock()
	sh.unlockAndFlush()
	sh.memUsed++ // want "without holding sh.mu"
}
