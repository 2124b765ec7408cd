package netserve

import (
	"bytes"
	"net"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
)

func TestServerWritePathDisabledByDefault(t *testing.T) {
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
	if err := client.Go(0, 0, 0, 4096, FlagWrite, func(r Response, _ time.Duration) { got <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.Status != StatusBadRequest {
			t.Errorf("status = %d, want BadRequest without ingest", r.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response")
	}
}

func TestServerWriteStreamsEndToEnd(t *testing.T) {
	dev, err := blockdev.NewMemDevice(1, 1<<30, 200*time.Microsecond, false)
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewServer(dev, blockdev.NewRealClock(), core.DefaultConfig(64<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ing, err := core.NewIngest(dev, blockdev.NewRealClock(), core.IngestConfig{
		ChunkSize: 1 << 20, Memory: 32 << 20, FlushTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.EnableWrites(ing)

	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The same stream machinery drives write streams via FlagWrite.
	if err := client.RunStreams(0, 1<<30, 4, 32, 64<<10, FlagWrite); err != nil {
		t.Fatalf("write streams: %v", err)
	}
	ing.Flush()
	st := ing.Stats()
	if st.Writes != 128 {
		t.Errorf("ingest writes = %d, want 128", st.Writes)
	}
	if st.BytesAccepted != 128*64<<10 {
		t.Errorf("BytesAccepted = %d", st.BytesAccepted)
	}
	if st.Flushes == 0 {
		t.Error("nothing flushed")
	}
	if dev.Writes() == 0 {
		t.Error("device saw no writes")
	}
	// Coalescing: far fewer device writes than client writes.
	if dev.Writes() >= 64 {
		t.Errorf("device writes = %d; coalescing ineffective", dev.Writes())
	}
}

func TestServerSurvivesGarbageFrames(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A connection that speaks garbage must be dropped without taking
	// the server down.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(bytes.Repeat([]byte{0xDE, 0xAD}, 64)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A well-behaved client still works afterwards.
	client, err := DialOpts(srv.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunStreams(0, 1<<30, 2, 8, 64<<10, 0); err != nil {
		t.Fatalf("healthy client after garbage: %v", err)
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	node := newTestNode(t)
	srv, err := NewServerOpts(node, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Length beyond MaxLength: the server must drop the connection.
	if err := WriteRequest(conn, Request{ID: 1, Length: MaxLength + 1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered an oversized frame instead of dropping it")
	}
}
