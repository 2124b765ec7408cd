package netserve

import (
	"sync"
	"testing"
	"time"
)

// stepClock hands out a scripted sequence of timestamps, one per
// Now() call, so a test controls the latency a client measures.
type stepClock struct {
	mu    sync.Mutex
	steps []time.Duration
	calls int
}

func (c *stepClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls >= len(c.steps) {
		return c.steps[len(c.steps)-1]
	}
	d := c.steps[c.calls]
	c.calls++
	return d
}

func (c *stepClock) Schedule(time.Duration, func()) (cancel func()) {
	return func() {}
}

// TestClientInjectedClock checks that the client measures request
// latency on the injected clock rather than the wall clock: with a
// scripted clock reading 10ms at issue and 25ms at completion, the
// recorded latency must be exactly 15ms.
func TestClientInjectedClock(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clock := &stepClock{steps: []time.Duration{10 * time.Millisecond, 25 * time.Millisecond}}
	client, err := DialOpts(srv.Addr(), ClientOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	done := make(chan time.Duration, 1)
	err = client.Go(0, 0, 0, 64<<10, 0, func(resp Response, lat time.Duration) {
		if resp.Status != StatusOK {
			t.Errorf("status = %d", resp.Status)
		}
		done <- lat
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case lat := <-done:
		if lat != 15*time.Millisecond {
			t.Errorf("latency = %v, want 15ms", lat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request did not complete")
	}

	st := client.Recorder().Stream(0)
	if st == nil {
		t.Fatal("stream 0 not recorded")
	}
	if st.First != 10*time.Millisecond || st.Last != 25*time.Millisecond {
		t.Errorf("recorded interval [%v, %v], want [10ms, 25ms]", st.First, st.Last)
	}
	if st.Bytes != 64<<10 || st.Requests != 1 {
		t.Errorf("recorded %d bytes / %d requests", st.Bytes, st.Requests)
	}
}
