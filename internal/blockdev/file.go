package blockdev

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// RealClock implements Clock over the wall clock. It is safe for
// concurrent use.
type RealClock struct {
	start time.Time
}

var _ Clock = (*RealClock)(nil)

// NewRealClock returns a clock whose epoch is now.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} } //lint:allow simdet real-clock shim

// Now returns the time since the clock was created.
func (c *RealClock) Now() time.Duration { return time.Since(c.start) } //lint:allow simdet real-clock shim

// Schedule runs fn after d on a timer goroutine.
func (c *RealClock) Schedule(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn) //lint:allow simdet real-clock shim
	return func() { t.Stop() }
}

type fileReq struct {
	file   *os.File
	off    int64
	length int64
	write  bool
	data   []byte
	buf    []byte // caller-supplied read destination (ReadInto)
	wdone  func(error)
	done   func([]byte, error)
}

// FileDevice serves reads from one file per "disk" using a bounded
// worker pool of positional reads. It is not direct I/O: files open
// with plain O_RDONLY (or O_RDWR), so every read goes through the
// kernel page cache, unlike the paper's §4.4 direct asynchronous I/O.
// Submission is not asynchronous either: ReadAt, ReadInto and WriteAt
// hold the device mutex across an unbuffered channel send, so a
// submitter blocks until a worker is free.
//
// It exists so the examples and streamnode -files can exercise the
// exact scheduler code path against a real OS; it is not part of the
// simulation.
type FileDevice struct {
	files []*os.File
	caps  []int64
	reqs  chan fileReq
	wg    sync.WaitGroup

	writable bool

	mu     sync.Mutex
	closed bool
}

var (
	_ Device     = (*FileDevice)(nil)
	_ ReaderInto = (*FileDevice)(nil)
)

// OpenFileDevice opens the given paths as read-only disks. workers
// bounds the number of concurrent reads (defaults to 2 per file when
// <= 0).
func OpenFileDevice(paths []string, workers int) (*FileDevice, error) {
	return openFileDevice(paths, workers, false)
}

// OpenFileDeviceRW opens the given paths read-write, enabling the
// Writer interface for the ingest path.
func OpenFileDeviceRW(paths []string, workers int) (*FileDevice, error) {
	return openFileDevice(paths, workers, true)
}

func openFileDevice(paths []string, workers int, writable bool) (*FileDevice, error) {
	if len(paths) == 0 {
		return nil, errors.New("blockdev: no paths")
	}
	if workers <= 0 {
		workers = 2 * len(paths)
	}
	d := &FileDevice{reqs: make(chan fileReq), writable: writable}
	for _, p := range paths {
		flag := os.O_RDONLY
		if writable {
			flag = os.O_RDWR
		}
		f, err := os.OpenFile(p, flag, 0)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("blockdev: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			d.Close()
			return nil, fmt.Errorf("blockdev: %w", err)
		}
		d.files = append(d.files, f)
		d.caps = append(d.caps, st.Size())
	}
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

func (d *FileDevice) worker() {
	defer d.wg.Done()
	for req := range d.reqs {
		if req.write {
			data := req.data
			if data == nil {
				data = make([]byte, req.length)
			}
			_, err := req.file.WriteAt(data, req.off)
			if req.wdone != nil {
				req.wdone(err)
			}
			continue
		}
		buf := req.buf
		if buf == nil {
			buf = make([]byte, req.length)
		}
		n, err := req.file.ReadAt(buf, req.off)
		if err != nil && n == int(req.length) {
			err = nil
		}
		if req.done != nil {
			req.done(buf[:n], err)
		}
	}
}

// Disks implements Device.
func (d *FileDevice) Disks() int { return len(d.files) }

// Capacity implements Device.
func (d *FileDevice) Capacity(disk int) int64 { return d.caps[disk] }

// ReadAt implements Device. The completion runs on a worker goroutine.
func (d *FileDevice) ReadAt(disk int, off, length int64, done func([]byte, error)) error {
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	// The lock spans the send so Close cannot close the channel between
	// the check and the send.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("blockdev: device closed")
	}
	d.reqs <- fileReq{file: d.files[disk], off: off, length: length, done: done}
	return nil
}

// ReadInto implements ReaderInto: the positional read lands in the
// caller's buffer. The completion runs on a worker goroutine.
func (d *FileDevice) ReadInto(disk int, off, length int64, buf []byte, done func([]byte, error)) error {
	if int64(len(buf)) != length {
		return ErrBadRequest
	}
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("blockdev: device closed")
	}
	d.reqs <- fileReq{file: d.files[disk], off: off, length: length, buf: buf, done: done}
	return nil
}

// WriteAt implements Writer when the device was opened read-write.
// data may be nil, in which case zeroes of the given length are
// written. The completion runs on a worker goroutine.
func (d *FileDevice) WriteAt(disk int, off, length int64, data []byte, done func(error)) error {
	if !d.writable {
		return ErrReadOnly
	}
	if data != nil && int64(len(data)) != length {
		return ErrBadRequest
	}
	if err := CheckRequest(d, disk, off, length); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("blockdev: device closed")
	}
	d.reqs <- fileReq{file: d.files[disk], off: off, length: length, write: true, data: data, wdone: done}
	return nil
}

// Close stops the workers and closes the files. In-flight reads finish
// first.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.reqs)
	d.wg.Wait()
	var first error
	for _, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
