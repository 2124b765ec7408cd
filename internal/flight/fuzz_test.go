package flight

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot decoder. It
// must never panic, must allocate no more than a small multiple of the
// input (a corrupt count cannot reserve memory the input does not
// back), and every binary input it accepts must re-encode through
// WriteTo to exactly the bytes it consumed.
func FuzzReadSnapshot(f *testing.F) {
	rec, err := New(func() time.Duration { return time.Millisecond }, 2, 8)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec.RingFor(i).Record(Event{Trace: uint64(i), Op: OpDeliver, Disk: uint16(i), Stream: int32(i),
			Offset: int64(i) << 20, Length: 64 << 10, T: time.Duration(i), Dur: time.Microsecond})
	}
	snap := rec.Snapshot()
	var bin bytes.Buffer
	if _, err := snap.WriteTo(&bin); err != nil {
		f.Fatal(err)
	}
	js, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(js)
	f.Add([]byte("SQFL\x01\x00\x01\x00\x00\x00\x00\x01")) // one ring claiming 1<<24 events
	f.Add([]byte("SQFL\x01\x00\xff\xff"))                 // 65535 rings, none present

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ReadSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The fixed part is bufio's reader and the JSON decoder's state.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 100*uint64(len(data))+64<<10; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil || data[0] == '{' {
			return
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted input does not round-trip:\n in %x\nout %x", data, out.Bytes())
		}
	})
}
