package blockdev

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

func newSimDevice(t *testing.T) (*sim.Engine, *SimDevice) {
	t.Helper()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.BaseConfig(iostack.Options{}))
	if err != nil {
		t.Fatalf("iostack.New: %v", err)
	}
	dev, err := NewSimDevice(host)
	if err != nil {
		t.Fatalf("NewSimDevice: %v", err)
	}
	return eng, dev
}

func TestSimClock(t *testing.T) {
	eng := sim.NewEngine()
	c := NewSimClock(eng)
	if c.Now() != 0 {
		t.Error("fresh clock not at zero")
	}
	fired := false
	cancel := c.Schedule(time.Millisecond, func() { fired = true })
	_ = cancel
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || c.Now() != time.Millisecond {
		t.Errorf("fired=%v now=%v", fired, c.Now())
	}
	// Cancellation.
	fired2 := false
	cancel2 := c.Schedule(time.Millisecond, func() { fired2 = true })
	cancel2()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired2 {
		t.Error("cancelled timer fired")
	}
}

func TestSimDevice(t *testing.T) {
	eng, dev := newSimDevice(t)
	if dev.Disks() != 1 {
		t.Errorf("Disks = %d", dev.Disks())
	}
	if dev.Capacity(0) <= 0 {
		t.Error("nonpositive capacity")
	}
	var got bool
	if err := dev.ReadAt(0, 0, 64<<10, func(data []byte, err error) {
		if err != nil {
			t.Errorf("completion err: %v", err)
		}
		if data != nil {
			t.Error("sim device should not materialize data")
		}
		got = true
	}); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("no completion")
	}
	// The host's CPU model charges each request per live buffer, so a
	// forwarded count shows up in the request's CPU time.
	charge := func(live int) time.Duration {
		dev.SetLiveBuffers(live)
		start := eng.Now()
		var end time.Duration
		dev.ChargeRequest(0, func() { end = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return end - start
	}
	if extra := charge(7) - charge(0); extra != 7*iostack.DefaultCPU().PerLiveBuffer {
		t.Errorf("7 live buffers added %v of CPU time, want %v: SetLiveBuffers not forwarded",
			extra, 7*iostack.DefaultCPU().PerLiveBuffer)
	}
}

func TestSimDeviceBadRequests(t *testing.T) {
	_, dev := newSimDevice(t)
	cases := []struct {
		disk        int
		off, length int64
	}{
		{-1, 0, 4096},
		{1, 0, 4096},
		{0, -1, 4096},
		{0, 0, 0},
		{0, dev.Capacity(0), 4096},
	}
	for _, c := range cases {
		if err := dev.ReadAt(c.disk, c.off, c.length, nil); err == nil {
			t.Errorf("ReadAt(%d,%d,%d) accepted", c.disk, c.off, c.length)
		}
	}
	if _, err := NewSimDevice(nil); err == nil {
		t.Error("nil host accepted")
	}
}

func TestRealClock(t *testing.T) {
	c := NewRealClock()
	t0 := c.Now()
	if t0 < 0 {
		t.Error("negative now")
	}
	var mu sync.Mutex
	fired := false
	done := make(chan struct{})
	c.Schedule(time.Millisecond, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if !fired {
		t.Error("not fired")
	}
	// Cancellation path.
	cancel := c.Schedule(time.Hour, func() { t.Error("cancelled timer fired") })
	cancel()
}

func writeTestFile(t *testing.T, size int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "disk.img")
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileDevice(t *testing.T) {
	path := writeTestFile(t, 1<<20)
	dev, err := OpenFileDevice([]string{path}, 2)
	if err != nil {
		t.Fatalf("OpenFileDevice: %v", err)
	}
	defer dev.Close()

	if dev.Disks() != 1 || dev.Capacity(0) != 1<<20 {
		t.Errorf("disks=%d cap=%d", dev.Disks(), dev.Capacity(0))
	}

	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte((i + 8192) % 251)
	}
	done := make(chan struct{})
	var got []byte
	var gotErr error
	if err := dev.ReadAt(0, 8192, 4096, func(data []byte, err error) {
		got, gotErr = data, err
		close(done)
	}); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read never completed")
	}
	if gotErr != nil {
		t.Fatalf("read err: %v", gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Error("read data mismatch")
	}
}

func TestFileDeviceValidation(t *testing.T) {
	if _, err := OpenFileDevice(nil, 1); err == nil {
		t.Error("no paths accepted")
	}
	if _, err := OpenFileDevice([]string{"/nonexistent/nope"}, 1); err == nil {
		t.Error("missing file accepted")
	}
	path := writeTestFile(t, 4096)
	dev, err := OpenFileDevice([]string{path}, 0) // default workers
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadAt(0, 4096, 1, nil); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := dev.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := dev.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := dev.ReadAt(0, 0, 1, nil); err == nil {
		t.Error("read after close accepted")
	}
}

func TestFileDeviceConcurrentReads(t *testing.T) {
	path := writeTestFile(t, 1<<20)
	dev, err := OpenFileDevice([]string{path}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		off := int64(i) * 16384
		if err := dev.ReadAt(0, off, 4096, func(data []byte, err error) {
			defer wg.Done()
			if err != nil {
				errs <- err
				return
			}
			if len(data) != 4096 {
				errs <- ErrBadRequest
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent read: %v", err)
	}
}
