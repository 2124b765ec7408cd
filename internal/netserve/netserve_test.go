package netserve

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
)

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{ID: 42, Disk: 3, Flags: FlagWantData, Offset: 1 << 30, Length: 64 << 10}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Errorf("request round trip: got %+v want %+v", got, req)
	}

	resp := Response{ID: 42, Status: StatusOK, Data: []byte("payload")}
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	rgot, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rgot.ID != 42 || rgot.Status != StatusOK || !bytes.Equal(rgot.Data, resp.Data) {
		t.Errorf("response round trip: got %+v", rgot)
	}
}

func TestProtocolNoPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, Response{ID: 1, Status: StatusIOError}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data != nil {
		t.Error("expected no payload")
	}
}

func TestProtocolBadMagic(t *testing.T) {
	junk := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := ReadRequest(bytes.NewReader(junk)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("ReadRequest err = %v, want ErrBadMagic", err)
	}
	if _, err := ReadResponse(bytes.NewReader(junk)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("ReadResponse err = %v, want ErrBadMagic", err)
	}
}

func TestProtocolShortFrame(t *testing.T) {
	if _, err := ReadRequest(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short request accepted")
	}
	if _, err := ReadResponse(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty response err = %v, want EOF", err)
	}
}

func TestProtocolTooLarge(t *testing.T) {
	var buf bytes.Buffer
	big := Request{ID: 1, Length: MaxLength + 1}
	if err := WriteRequest(&buf, big); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized request err = %v", err)
	}
	if err := WriteResponse(io.Discard, Response{Data: make([]byte, MaxLength+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized response err = %v", err)
	}
}

// newTestNode builds a real-time storage node over a memory device.
func newTestNode(t *testing.T) *core.Server {
	t.Helper()
	dev, err := blockdev.NewMemDevice(2, 1<<30, 200*time.Microsecond, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(64<<20, 1<<20)
	cfg.GCPeriod = 100 * time.Millisecond
	node, err := core.NewServer(dev, blockdev.NewRealClock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

func TestServerClientEndToEnd(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.RunStreams(0, 1<<30, 4, 32, 64<<10, 0); err != nil {
		t.Fatalf("RunStreams: %v", err)
	}
	rec := client.Recorder()
	if rec.TotalRequests() != 128 {
		t.Errorf("TotalRequests = %d, want 128", rec.TotalRequests())
	}
	if rec.TotalBytes() != 128*64<<10 {
		t.Errorf("TotalBytes = %d", rec.TotalBytes())
	}
	if rec.Streams() != 4 {
		t.Errorf("Streams = %d", rec.Streams())
	}
	st := srv.Stats()
	if st.Requests != 128 || st.Conns != 1 {
		t.Errorf("server stats = %+v", st)
	}
	if outstanding(client) != 0 {
		t.Errorf("Outstanding = %d after drain", outstanding(client))
	}
	if client.Err() != nil {
		t.Errorf("client error: %v", client.Err())
	}
}

func TestServerReturnsData(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got := make(chan Response, 1)
	if err := client.Go(0, 1, 4096, 512, FlagWantData, func(r Response, _ time.Duration) {
		got <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.Status != StatusOK {
			t.Fatalf("status = %d", r.Status)
		}
		if len(r.Data) != 512 {
			t.Fatalf("data length = %d", len(r.Data))
		}
		for i, b := range r.Data {
			if b != blockdev.Pattern(1, 4096+int64(i)) {
				t.Fatalf("data[%d] corrupt", i)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response")
	}
}

func TestServerBadRequest(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got := make(chan Response, 1)
	// Disk 9 does not exist.
	if err := client.Go(0, 9, 0, 4096, 0, func(r Response, _ time.Duration) { got <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.Status != StatusBadRequest {
			t.Errorf("status = %d, want BadRequest", r.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response")
	}
	if srv.Stats().Errors == 0 {
		t.Error("server did not count the error")
	}
}

func TestServerMultipleClients(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			client, err := DialOpts(srv.Addr(), ClientOptions{})
			if err != nil {
				done <- err
				return
			}
			defer client.Close()
			done <- client.RunStreams(0, 1<<30, 2, 16, 64<<10, 0)
		}()
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if got := srv.Stats().Conns; got != 3 {
		t.Errorf("Conns = %d, want 3", got)
	}
}

func TestServerCloseUnblocksClient(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	// New connections must fail.
	if _, err := DialOpts(srv.Addr(), ClientOptions{}); err == nil {
		t.Error("Dial after Close succeeded")
	}
}

func TestMemDevice(t *testing.T) {
	if _, err := blockdev.NewMemDevice(0, 1024, 0, false); err == nil {
		t.Error("zero disks accepted")
	}
	if _, err := blockdev.NewMemDevice(1, 0, 0, false); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := blockdev.NewMemDevice(1, 1024, -1, false); err == nil {
		t.Error("negative latency accepted")
	}
	dev, err := blockdev.NewMemDevice(1, 1<<20, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan struct{})
	if err := dev.ReadAt(0, 0, 4096, func(data []byte, err error) {
		if err != nil || data != nil {
			t.Errorf("unexpected data/err: %v %v", data, err)
		}
		close(doneCh)
	}); err != nil {
		t.Fatal(err)
	}
	<-doneCh
	if dev.Reads() != 1 {
		t.Errorf("Reads = %d", dev.Reads())
	}
	if err := dev.ReadAt(0, 1<<20, 1, nil); err == nil {
		t.Error("out-of-range read accepted")
	}
}

// outstanding returns the number of requests c still has pending.
func outstanding(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
