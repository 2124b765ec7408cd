package bufpool

import (
	"sync"
	"testing"

	"seqstream/internal/invariants"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{1, 0}, {4096, 0}, {4097, 1}, {8192, 1},
		{64 << 10, 4}, {1 << 20, 8}, {8 << 20, 11},
		{128 << 20, 15}, {128<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetReleaseRecycles(t *testing.T) {
	p := New()
	b := p.Get(64 << 10)
	if len(b.Data) != 64<<10 {
		t.Fatalf("len = %d", len(b.Data))
	}
	if cap(b.Data) != 64<<10 {
		t.Fatalf("cap = %d, want class size", cap(b.Data))
	}
	b.Data[0] = 1
	b.Release()
	st := p.Stats()
	if st.Gets != 1 || st.Puts != 1 || st.CheckedOut != 0 || st.BytesOut != 0 {
		t.Errorf("stats after release: %+v", st)
	}
	// The recycled buffer should come back (sync.Pool may drop it, but
	// never across a single goroutine without GC pressure — except
	// under the race detector, which drops Puts on purpose).
	b2 := p.Get(64 << 10)
	if !raceEnabled && p.Stats().Misses != 1 {
		t.Errorf("second Get missed: %+v", p.Stats())
	}
	b2.Release()
}

func TestRetainDefersRecycle(t *testing.T) {
	p := New()
	b := p.Get(4096)
	b.Retain()
	b.Release()
	if got := p.Stats().CheckedOut; got != 1 {
		t.Fatalf("CheckedOut = %d with a live ref", got)
	}
	if b.Refs() != 1 {
		t.Fatalf("refs = %d", b.Refs())
	}
	b.Release()
	if got := p.Stats().CheckedOut; got != 0 {
		t.Fatalf("CheckedOut = %d after final release", got)
	}
}

func TestOversizedNeverPooled(t *testing.T) {
	p := New()
	b := p.Get(256 << 20)
	if b.class != -1 {
		t.Fatalf("class = %d for oversized buffer", b.class)
	}
	b.Release()
	if st := p.Stats(); st.Puts != 0 {
		t.Errorf("oversized buffer was pooled: %+v", st)
	}
}

func TestNilSafety(t *testing.T) {
	var b *Buf
	b.Retain()
	b.Release() // must not panic
}

func TestDoublePutDetection(t *testing.T) {
	p := New()
	b := p.Get(4096)
	b.Release()
	if invariants.Enabled {
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic under invariants tag")
			}
		}()
		b.Release()
		return
	}
	// Release builds absorb the double-put: the pool must not hand the
	// same buffer out twice.
	b.Release()
	x, y := p.Get(4096), p.Get(4096)
	if x == y {
		t.Fatal("double-put made the pool hand out one buffer twice")
	}
	x.Release()
	y.Release()
}

func TestUseAfterPutDetection(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("poisoning only under the invariants tag")
	}
	p := New()
	b := p.Get(4096)
	stale := b.Data
	b.Release()
	stale[17] = 42 // write through a stale slice
	defer func() {
		if recover() == nil {
			t.Error("use-after-put not detected at next Get")
		}
	}()
	p.Get(4096)
}

func TestConcurrentChurn(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get(int64(4096 << (i % 4)))
				b.Data[0] = byte(i)
				b.Retain()
				b.Release()
				b.Release()
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.CheckedOut != 0 || st.BytesOut != 0 {
		t.Errorf("leaked checkouts: %+v", st)
	}
}
