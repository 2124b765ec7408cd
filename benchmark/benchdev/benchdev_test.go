package benchdev

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"seqstream/internal/blockdev"
)

func TestFillMatchesBlockdevPattern(t *testing.T) {
	for _, disk := range []int{0, 1, 7, 250} {
		for _, off := range []int64{0, 1, 250, 251, 65535, 65537, 1<<40 + 12345, 4<<40 - 70001} {
			for _, n := range []int{1, 250, 251, 252, 4096, 65536, 70000} {
				got := make([]byte, n)
				Fill(got, disk, off)
				for i, b := range got {
					if want := blockdev.Pattern(disk, off+int64(i)); b != want {
						t.Fatalf("Fill disk %d off %d len %d: byte %d = %#x, want %#x", disk, off, n, i, b, want)
					}
				}
				if int64(n) <= MaxExpect && !bytes.Equal(Expect(disk, off, int64(n)), got) {
					t.Fatalf("Expect disk %d off %d len %d differs from Fill", disk, off, n)
				}
			}
		}
	}
	if MaxExpect < 65536 {
		t.Fatalf("MaxExpect = %d, must cover a 64 KiB request", MaxExpect)
	}
}

func TestServiceTime(t *testing.T) {
	d, err := New(Config{Disks: 1, Capacity: 1 << 30, Position: 2 * time.Millisecond, Rate: 200e6})
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB at 200 MB/s is 5.24288 ms.
	if got, want := d.ServiceTime(1<<20, false), 5242880*time.Nanosecond; got != want {
		t.Errorf("transfer only: %v, want %v", got, want)
	}
	if got, want := d.ServiceTime(1<<20, true), 7242880*time.Nanosecond; got != want {
		t.Errorf("positioned: %v, want %v", got, want)
	}
	instant, err := New(Config{Disks: 1, Capacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := instant.ServiceTime(1<<20, true); got != 0 {
		t.Errorf("instant device: %v, want 0", got)
	}
}

// A modelled disk is a FIFO: with the clock frozen, the k-th read
// queued on a disk completes k service times after the first began, and
// only a read that starts where the previous one ended skips
// positioning.
func TestFIFOArithmetic(t *testing.T) {
	var mu sync.Mutex
	var got []Read
	d, err := New(Config{Disks: 2, Capacity: 1 << 30, Position: time.Millisecond, Rate: 1 << 30,
		Now:     func() time.Duration { return 0 },
		Observe: func(r Read) { mu.Lock(); got = append(got, r); mu.Unlock() }})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	read := func(disk int, off int64) {
		wg.Add(1)
		if err := d.ReadAt(disk, off, 1<<20, func(data []byte, err error) {
			if data != nil || err != nil {
				t.Errorf("data-less read returned %d bytes, err %v", len(data), err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	read(0, 0)     // positions
	read(0, 1<<20) // contiguous
	read(0, 8<<20) // positions
	read(1, 0)     // other disk: own queue
	wg.Wait()

	transfer := d.ServiceTime(1<<20, false)
	want := map[[2]int64]Read{
		{0, 0}:       {Start: 0, Positioned: true},
		{0, 1 << 20}: {Start: time.Millisecond + transfer, Positioned: false},
		{0, 8 << 20}: {Start: time.Millisecond + 2*transfer, Positioned: true},
		{1, 0}:       {Start: 0, Positioned: true},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d reads, want %d", len(got), len(want))
	}
	for _, r := range got {
		w := want[[2]int64{int64(r.Disk), r.Off}]
		if r.Arrive != 0 || r.Start != w.Start || r.Positioned != w.Positioned {
			t.Errorf("disk %d off %d: arrive %v start %v positioned %v, want 0 %v %v",
				r.Disk, r.Off, r.Arrive, r.Start, r.Positioned, w.Start, w.Positioned)
		}
	}
	st := d.Stats()
	if st.Reads != 4 || st.Seeks != 3 || st.Bytes != 4<<20 || st.Busy != 3*time.Millisecond+4*transfer {
		t.Errorf("stats %+v", st)
	}
	if waits := d.QueueWaits(); len(waits) != 4 || waits[3] != time.Millisecond+2*transfer {
		t.Errorf("queue waits %v", waits)
	}
}

// onReadStack reports whether the caller runs inside a Device read
// call, i.e. whether a completion is being delivered inline.
func onReadStack() bool {
	buf := make([]byte, 16<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Device).read("))
}

func TestCompletionIsNeverInlineWithServiceTime(t *testing.T) {
	// Even a 3 ns service time must complete off the caller's stack.
	d, err := New(Config{Disks: 1, Capacity: 1 << 30, Rate: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	inline := make(chan bool, 1)
	if err := d.ReadAt(0, 0, 4096, func([]byte, error) { inline <- onReadStack() }); err != nil {
		t.Fatal(err)
	}
	if <-inline {
		t.Fatal("a read with a service time completed inside the call")
	}

	instant, err := New(Config{Disks: 1, Capacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := instant.ReadAt(0, 0, 4096, func([]byte, error) { inline <- onReadStack() }); err != nil {
		t.Fatal(err)
	}
	if !<-inline {
		t.Fatal("the instant device did not complete inside the call")
	}
}

func TestReadIntoContract(t *testing.T) {
	d, err := New(Config{Disks: 2, Capacity: 1 << 20, Data: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.SupportsReadInto() {
		t.Fatal("a data device must support ReadInto")
	}
	buf := make([]byte, 4096)
	for _, short := range [][]byte{buf[:4095], make([]byte, 4097), nil} {
		if err := d.ReadInto(1, 0, 4096, short, nil); !errors.Is(err, blockdev.ErrBadRequest) {
			t.Errorf("ReadInto with %d-byte buffer for 4096: %v, want ErrBadRequest", len(short), err)
		}
	}
	if err := d.ReadInto(1, 1<<20-100, 4096, buf, nil); !errors.Is(err, blockdev.ErrBadRequest) {
		t.Errorf("read past capacity: %v, want ErrBadRequest", err)
	}
	var got []byte
	if err := d.ReadInto(1, 333, 4096, buf, func(data []byte, err error) { got = data }); err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] || len(got) != 4096 || !bytes.Equal(got, Expect(1, 333, 4096)) {
		t.Error("ReadInto did not fill and return the caller's buffer")
	}

	dataless, err := New(Config{Disks: 1, Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if dataless.SupportsReadInto() {
		t.Error("data-less device claims ReadInto")
	}
	if err := dataless.ReadInto(0, 0, 4096, buf, nil); !errors.Is(err, blockdev.ErrBadRequest) {
		t.Errorf("ReadInto on data-less device: %v, want ErrBadRequest", err)
	}
	// ReadAt on a data device allocates what it delivers.
	if err := d.ReadAt(0, 777, 4096, func(data []byte, err error) { got = data }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, Expect(0, 777, 4096)) {
		t.Error("ReadAt on a data device did not deliver the pattern")
	}
}
