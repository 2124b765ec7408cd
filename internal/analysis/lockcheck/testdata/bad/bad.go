// Package bad is a lockcheck fixture: every construct here must
// trigger a diagnostic. It is parsed by the analyzer tests, never
// built.
package bad

import (
	"sync"
	"time"
)

type server struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

func (s *server) sendHeld() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while s.mu is held"
	s.mu.Unlock()
}

func (s *server) recvHeld() {
	s.mu.Lock()
	<-s.ch // want "channel receive while s.mu is held"
	s.mu.Unlock()
}

func (s *server) sleepHeld() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while s.mu is held"
	s.mu.Unlock()
}

func (s *server) waitHeld() {
	s.mu.Lock()
	s.wg.Wait() // want "s.wg.Wait() while s.mu is held"
	s.mu.Unlock()
}

func (s *server) selectHeld() {
	s.mu.Lock()
	select { // want "select with channel cases while s.mu is held"
	case v := <-s.ch:
		_ = v
	default:
	}
	s.mu.Unlock()
}

func (s *server) leakReturn(fail bool) error {
	s.mu.Lock()
	if fail {
		return nil // want "return while s.mu is held"
	}
	s.mu.Unlock()
	return nil
}

func (s *server) leakTail() {
	s.mu.Lock()
	s.ch = make(chan int)
	return // want "return while s.mu is held"
}

func (s *server) rlockSend() {
	var rw sync.RWMutex
	rw.RLock()
	s.ch <- 2 // want "channel send while rw is held"
	rw.RUnlock()
}

//lint:releases mu
func (s *server) unlockAndRun() {
	s.mu.Unlock()
}

// releasesOther: the call releases other.mu, not s.mu.
func (s *server) releasesOther(other *server) {
	s.mu.Lock()
	other.unlockAndRun()
	return // want "return while s.mu is held"
}
