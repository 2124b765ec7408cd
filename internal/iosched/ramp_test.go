package iosched

import (
	"testing"
)

func TestRampValidation(t *testing.T) {
	cfg := DefaultConfig(Noop)
	cfg.RampStart = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative ramp accepted")
	}
	cfg.RampStart = 16 << 10
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid ramp rejected: %v", err)
	}
}

func TestRampDoublesWindows(t *testing.T) {
	eng, s, _ := newSched(t, Noop, func(c *Config) {
		c.RampStart = 16 << 10
		c.MaxWindow = 128 << 10
	})
	// Drive one sequential reader; record the fetch sizes.
	var next int64
	var fetched []int64
	before := int64(0)
	for i := 0; i < 60; i++ {
		if err := s.Read(0, next, 4096, nil); err != nil {
			t.Fatal(err)
		}
		next += 4096
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if db := s.stats.DiskBytes; db != before {
			fetched = append(fetched, db-before)
			before = db
		}
	}
	if len(fetched) < 3 {
		t.Fatalf("too few fetches: %v", fetched)
	}
	// Windows ramp 16K -> 32K -> 64K -> 128K (cap).
	want := []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10}
	for i := 0; i < len(want) && i < len(fetched); i++ {
		if fetched[i] != want[i] {
			t.Fatalf("fetch sizes = %v, want prefix %v", fetched, want)
		}
	}
	last := fetched[len(fetched)-1]
	if last != 128<<10 {
		t.Errorf("steady window = %d, want capped at 128K", last)
	}
}

func TestRampResetsOnSeek(t *testing.T) {
	eng, s, d := newSched(t, Noop, func(c *Config) {
		c.RampStart = 16 << 10
	})
	// Sequential run to grow the window.
	var next int64
	for i := 0; i < 40; i++ {
		if err := s.Read(0, next, 4096, nil); err != nil {
			t.Fatal(err)
		}
		next += 4096
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Seek far away, then resume sequentially: the first window after
	// the seek restarts at RampStart.
	far := d.Capacity() / 2
	far -= far % 512
	before := s.stats.DiskBytes
	if err := s.Read(0, far, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	seekFetch := s.stats.DiskBytes - before
	if seekFetch != 4096 {
		t.Errorf("seek fetch = %d, want bare request", seekFetch)
	}
	before = s.stats.DiskBytes
	if err := s.Read(0, far+4096, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	resumeFetch := s.stats.DiskBytes - before
	if resumeFetch != 16<<10 {
		t.Errorf("post-seek window = %d, want RampStart 16K", resumeFetch)
	}
}

func TestNoRampGrantsFullWindow(t *testing.T) {
	eng, s, _ := newSched(t, Noop, nil) // RampStart = 0
	if err := s.Read(0, 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if db := s.stats.DiskBytes; db != 128<<10 {
		t.Errorf("first fetch = %d, want full 128K window", db)
	}
}
