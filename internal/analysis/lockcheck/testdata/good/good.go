// Package good is a lockcheck fixture: nothing here may trigger a
// diagnostic. The shapes mirror the patterns internal/core and
// internal/netserve actually use.
package good

import (
	"errors"
	"sync"
	"time"
)

type server struct {
	mu     sync.Mutex
	ch     chan int
	wg     sync.WaitGroup
	closed bool
	stats  int
}

// deferUnlock: the canonical safe accessor.
func (s *server) deferUnlock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// earlyReturn: every return path unlocks first.
func (s *server) earlyReturn() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("closed")
	}
	s.stats++
	s.mu.Unlock()
	return nil
}

// sendAfterUnlock: blocking operations after release are fine.
func (s *server) sendAfterUnlock() {
	s.mu.Lock()
	s.stats++
	s.mu.Unlock()
	s.ch <- 1
	time.Sleep(time.Millisecond)
	s.wg.Wait()
}

// callbackIsolation: a function literal is its own flow; its channel
// send does not run under the enclosing lock.
func (s *server) callbackIsolation() func() {
	s.mu.Lock()
	cb := func() { s.ch <- 1 }
	s.mu.Unlock()
	return cb
}

// lockPerIteration: the flushIO shape — lock and unlock inside each
// loop iteration, blocking work outside the critical section.
func (s *server) lockPerIteration(work []func()) {
	for {
		s.mu.Lock()
		n := s.stats
		s.mu.Unlock()
		if n == 0 {
			return
		}
		for _, fn := range work {
			fn()
		}
		s.ch <- n
	}
}

// branchReturnThenHeld: a terminating branch does not clear the outer
// path's obligation, and the outer path unlocks properly.
func (s *server) branchReturnThenHeld(fail bool) error {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return errors.New("fail")
	}
	s.stats++
	s.mu.Unlock()
	s.ch <- s.stats
	return nil
}

// allowEscape: a deliberate send under the lock can be waived.
func (s *server) allowEscape() {
	s.mu.Lock()
	s.ch <- 1 //lint:allow lockcheck buffered channel, never blocks
	s.mu.Unlock()
}

// unlockAndRun is entered holding s.mu and returns with it released.
//
//lint:releases mu
func (s *server) unlockAndRun() {
	s.stats++
	s.mu.Unlock()
}

// releasedByCall: a call to a //lint:releases method ends the hold, so
// the send after it and the return are clean.
func (s *server) releasedByCall() {
	s.mu.Lock()
	s.stats++
	s.unlockAndRun()
	s.ch <- 1
}
