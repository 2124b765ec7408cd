package core

import (
	"sync"
	"testing"
	"time"

	"seqstream/internal/blockdev"
)

// TestStatsRace hammers Submit from several goroutines while others
// poll every read-side accessor. It uses a real-time MemDevice (the
// sim engine is single-threaded by design) and exists to prove, under
// -race, that Stats/Snapshot/ActiveStreams/DispatchedStreams take a
// consistent view while the write path is hot.
func TestStatsRace(t *testing.T) {
	dev, err := blockdev.NewMemDevice(1, 1<<30, 50*time.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8<<20, 1<<20)
	srv, err := NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		writers  = 4
		readers  = 4
		requests = 200
		req      = 64 << 10
	)
	var wg, pending sync.WaitGroup
	stop := make(chan struct{})
	// Every request is counted before any is submitted: an Add racing
	// Wait at a zero count could let Wait return with requests unsent.
	pending.Add(writers * requests)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := (int64(w) * dev.Capacity(0) / writers) &^ 511
			for i := 0; i < requests; i++ {
				err := srv.Submit(Request{
					Disk:   0,
					Offset: base + int64(i)*req,
					Length: req,
					Done:   func(Response) { pending.Done() },
				})
				if err != nil {
					pending.Add(i - requests) // this and the unsubmitted rest
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := srv.Stats()
				if st.Requests < 0 || st.MemoryInUse < 0 {
					t.Error("negative stats")
					return
				}
				snap := srv.Snapshot()
				if snap.DispatchedStreams > cfg.DispatchSize {
					t.Errorf("dispatched %d > D=%d", snap.DispatchedStreams, cfg.DispatchSize)
					return
				}
				if snap.Stats.Requests < 0 {
					t.Error("negative snapshot counter")
					return
				}
				_ = srv.liveStreams.Load()
				_ = srv.dispatched.Load()
			}
		}()
	}

	pending.Wait()
	close(stop)
	wg.Wait()

	if got := srv.Stats().Requests; got != writers*requests {
		t.Errorf("requests = %d, want %d", got, writers*requests)
	}
}
