package netserve

import (
	"bytes"
	"encoding/binary"
	"testing"

	"seqstream/internal/bufpool"
)

// Every decoder in the package parses bytes a peer chose. The fuzz
// targets hold each to the same three properties: it never panics, it
// never hands back (so never allocated) more than MaxLength of
// payload, and whatever it accepts re-encodes to exactly the bytes it
// consumed — so decode(encode(x)) == x follows for every x the seeds
// and the fuzzer reach.

func FuzzReadRequest(f *testing.F) {
	for _, req := range []Request{
		{},
		{ID: 42, Disk: 3, Flags: FlagWantData, Offset: 1 << 30, Length: 64 << 10},
		{ID: 1, Flags: FlagWrite, Length: MaxLength},
		{ID: 7, Trace: 0xfeedface, Offset: -1},
		{ID: 9, Flags: FlagTraced}, // traced frame carrying a zero id
		{ID: 2, Length: MaxLength + 1},
	} {
		f.Add(appendRequest(nil, req))
	}
	f.Add([]byte{})
	f.Add(appendRequest(nil, Request{Trace: 1})[:reqHeaderSize+3]) // cut inside the extension
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		req, err := ReadRequest(r)
		if err != nil {
			return
		}
		if req.Length < 0 || req.Length > MaxLength {
			t.Fatalf("accepted length %d", req.Length)
		}
		consumed := data[:len(data)-r.Len()]
		enc := appendRequest(nil, req)
		if !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoded %x, consumed %x", enc, consumed)
		}
		again, err := ReadRequest(bytes.NewReader(enc))
		if err != nil || again != req {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, req)
		}
	})
}

// fuzzResponse is the shared body of the two response targets.
func fuzzResponse(t *testing.T, data []byte, v2 bool, pool *bufpool.Pool) {
	r := bytes.NewReader(data)
	d := decoder{r: r}
	resp, err := d.readResponse(v2, pool)
	if err != nil {
		return
	}
	defer resp.Release()
	if len(resp.Data) > MaxLength {
		t.Fatalf("accepted %d payload bytes", len(resp.Data))
	}
	if !v2 && (resp.Flags != 0 || resp.Offset != 0) {
		t.Fatalf("v1 frame decoded v2 fields: %+v", resp)
	}
	consumed := data[:len(data)-r.Len()]
	var enc bytes.Buffer
	if err := NewResponseWriter(&enc, v2).WriteResponse(&resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), consumed) {
		t.Fatalf("re-encoded %d bytes differ from the %d consumed", enc.Len(), len(consumed))
	}
	d = decoder{r: &enc}
	again, err := d.readResponse(v2, nil)
	if err != nil || again.ID != resp.ID || again.Status != resp.Status || again.Flags != resp.Flags ||
		again.Offset != resp.Offset || !bytes.Equal(again.Data, resp.Data) {
		t.Fatalf("round trip: %+v, %v; want %+v", again, err, resp)
	}
}

func responseSeeds(f *testing.F, v2 bool) {
	for _, resp := range []Response{
		{},
		{ID: 42, Status: StatusIOError},
		{ID: 1, Status: StatusOK, Data: []byte("payload")},
		{ID: 2, Flags: RespPayload, Offset: 1 << 40, Data: bytes.Repeat([]byte{0xa5}, 4096)},
		{ID: 3, Flags: RespPayload, Offset: -512},
	} {
		var buf bytes.Buffer
		if err := NewResponseWriter(&buf, v2).WriteResponse(&resp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}
	// A header that promises MaxLength+1 bytes, and one that promises
	// MaxLength and delivers none.
	for _, n := range []uint32{MaxLength + 1, MaxLength} {
		var buf bytes.Buffer
		resp := Response{ID: 4}
		if err := NewResponseWriter(&buf, v2).WriteResponse(&resp); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		binary.LittleEndian.PutUint32(b[len(b)-4:], n)
		f.Add(b)
	}
}

func FuzzReadResponse(f *testing.F) {
	responseSeeds(f, false)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzResponse(t, data, false, nil) })
}

// FuzzReadResponseV2 decodes v2 frames through the scratch-array
// decoder into pooled memory and checks the pool's books afterwards:
// every error path must have released what it took. The client's
// in-place receiver has its own target, FuzzReadResponseSplit.
func FuzzReadResponseV2(f *testing.F) {
	responseSeeds(f, true)
	pool := bufpool.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzResponse(t, data, true, pool)
		if out := pool.Stats().CheckedOut; out != 0 {
			t.Fatalf("%d receive buffers still checked out", out)
		}
	})
}

// FuzzReadResponseSplit runs a client's receiver over a whole stream
// of frames, handed to it in read sizes the input also chooses (each
// byte of cuts is one read's size less one, cycling), with a chunk
// small enough for frames to straddle its end and payloads to outgrow
// it. However the stream is cut, every frame it accepts re-encodes to
// exactly the bytes it consumed, and closing the receiver with every
// response released leaves no chunk checked out.
func FuzzReadResponseSplit(f *testing.F) {
	for _, v2 := range []bool{false, true} {
		var stream []byte
		for _, resp := range []Response{
			{ID: 1, Status: StatusOK, Data: []byte("payload")},
			{ID: 2, Status: StatusIOError},
			{ID: 3, Flags: RespPayload, Offset: 1 << 40, Data: bytes.Repeat([]byte{0xa5}, testChunk-100)},
			{ID: 4, Flags: RespPayload, Offset: 8192, Data: bytes.Repeat([]byte{0x3c}, 2*testChunk)},
			{ID: 5, Flags: RespPayload, Offset: -512},
		} {
			if !v2 {
				resp.Flags, resp.Offset = 0, 0
			}
			stream = append(stream, refResponseFrame(v2, resp)...)
		}
		for _, cuts := range [][]byte{nil, {0}, {6, 200, 2}, {255, 19, 27}} {
			f.Add(stream, cuts, v2)
			f.Add(stream[:len(stream)-1], cuts, v2)
		}
	}
	pool := bufpool.New()
	f.Fuzz(func(t *testing.T, data, cuts []byte, v2 bool) {
		sizes := []int{len(data) + 1}
		if len(cuts) > 0 {
			sizes = sizes[:0]
			for _, c := range cuts {
				sizes = append(sizes, int(c)+1)
			}
		}
		src := bytes.NewReader(data)
		rx := newReceiver(&choppedReader{r: src, sizes: sizes}, pool, v2, testChunk)
		for start := 0; ; {
			var resp Response
			if err := rx.next(&resp); err != nil {
				break
			}
			if len(resp.Data) > MaxLength {
				t.Fatalf("accepted %d payload bytes", len(resp.Data))
			}
			if !v2 && (resp.Flags != 0 || resp.Offset != 0) {
				t.Fatalf("v1 frame decoded v2 fields: %+v", resp)
			}
			end := len(data) - src.Len() - (rx.w - rx.r)
			var enc bytes.Buffer
			if err := NewResponseWriter(&enc, v2).WriteResponse(&resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), data[start:end]) {
				t.Fatalf("re-encoded %d bytes differ from the %d consumed", enc.Len(), end-start)
			}
			start = end
			resp.Release()
		}
		rx.close()
		if out := pool.Stats().CheckedOut; out != 0 {
			t.Fatalf("%d receive chunks still checked out", out)
		}
	})
}

func FuzzReadHello(f *testing.F) {
	for _, h := range []Hello{{}, {Version: ProtoV1}, {Version: ProtoV2, Feats: FeatPayload}, {Version: 0xffff, Feats: 0xffff}} {
		var buf bytes.Buffer
		if err := WriteHello(&buf, h); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(appendRequest(nil, Request{ID: 1})) // a v1 client's first frame is not a hello
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := ReadHello(r)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteHello(&enc, h); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(enc.Bytes(), consumed) {
			t.Fatalf("re-encoded %x, consumed %x", enc.Bytes(), consumed)
		}
	})
}

// refResponseFrame is the response framing of DESIGN.md §11 written
// out field by field, independently of the package's encoder, so the
// differential test below compares against the format and not against
// the code under test.
func refResponseFrame(v2 bool, resp Response) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x53455153) // "SQES"
	b = le.AppendUint64(b, resp.ID)
	b = le.AppendUint32(b, resp.Status)
	if v2 {
		b = le.AppendUint32(b, resp.Flags)
	}
	b = le.AppendUint32(b, uint32(len(resp.Data)))
	if v2 && resp.Flags&1 != 0 {
		b = le.AppendUint64(b, uint64(resp.Offset))
	}
	return append(b, resp.Data...)
}

// TestBatchEncoderMatchesSingleFrames is the wire-compatibility check
// for the coalescing writer: a batch's bytes are exactly what the same
// frames written one at a time produce, and both are exactly the
// documented format — in v1 (what an old peer parses) and v2, with
// and without payload framing, whatever mix of header-only and
// payload frames the batch holds.
func TestBatchEncoderMatchesSingleFrames(t *testing.T) {
	payload := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	mixes := map[string][]Response{
		"dataless": {
			{ID: 1}, {ID: 2, Status: StatusIOError}, {ID: 3, Status: StatusTimeout}, {ID: 1 << 63},
		},
		"payload": {
			{ID: 10, Flags: RespPayload, Offset: 0, Data: payload(512, 1)},
			{ID: 11, Flags: RespPayload, Offset: 1 << 33, Data: payload(64<<10, 2)},
		},
		"mixed": {
			{ID: 20},
			{ID: 21, Flags: RespPayload, Offset: 4096, Data: payload(100, 3)},
			{ID: 22, Status: StatusBadRequest},
			{ID: 23},
			{ID: 24, Data: payload(7, 4)}, // data without payload framing (a v1-style FlagWantData reply)
			{ID: 25, Flags: RespPayload, Offset: -1},
			{ID: 26, Flags: RespPayload, Offset: 8192, Data: payload(1, 5)},
		},
	}
	full := make([]Response, maxBatchFrames)
	for i := range full {
		full[i] = Response{ID: uint64(100 + i), Status: uint32(i % 4)}
	}
	mixes["full-batch"] = full

	for name, batch := range mixes {
		for _, v2 := range []bool{false, true} {
			var want []byte
			for _, resp := range batch {
				want = append(want, refResponseFrame(v2, resp)...)
			}

			var single bytes.Buffer
			fw := NewResponseWriter(&single, v2)
			for i := range batch {
				if err := fw.WriteResponse(&batch[i]); err != nil {
					t.Fatalf("%s v2=%v: WriteResponse: %v", name, v2, err)
				}
			}
			if !bytes.Equal(single.Bytes(), want) {
				t.Errorf("%s v2=%v: single-frame writes differ from the documented format", name, v2)
			}

			var batched bytes.Buffer
			// A writer that has already sent a batch: the arena and
			// gather list are reused, not fresh.
			bw := NewResponseWriter(&batched, v2)
			if err := bw.writeBatch(batch); err != nil {
				t.Fatalf("%s v2=%v: writeBatch: %v", name, v2, err)
			}
			batched.Reset()
			if err := bw.writeBatch(batch); err != nil {
				t.Fatalf("%s v2=%v: writeBatch: %v", name, v2, err)
			}
			if !bytes.Equal(batched.Bytes(), want) {
				t.Errorf("%s v2=%v: batch differs from %d single-frame writes", name, v2, len(batch))
			}

			if !v2 {
				var pkg bytes.Buffer
				for _, resp := range batch {
					if err := WriteResponse(&pkg, resp); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(pkg.Bytes(), want) {
					t.Errorf("%s: package-level WriteResponse differs from the documented v1 format", name)
				}
			}
		}
	}

	// A data-less batch is one gather entry, so one buffer in the
	// writev however many frames it carries.
	fw := NewResponseWriter(discardWriter{}, false)
	fw.begin(len(full))
	for i := range full {
		if err := fw.add(&full[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(fw.iov) != 1 || len(fw.iov[0]) != len(full)*respHeaderSize {
		t.Errorf("data-less batch of %d frames gathered into %d buffers", len(full), len(fw.iov))
	}
}
