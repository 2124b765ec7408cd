package trace

import (
	"bytes"
	"strings"
	"testing"
)

// reencode writes events through a tracer holding exactly them, in the
// given format.
func reencode(t *testing.T, events []Event, write func(*Tracer, *bytes.Buffer) error) *bytes.Buffer {
	t.Helper()
	tr, err := New(len(events) + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		tr.Record(e)
	}
	var buf bytes.Buffer
	if err := write(tr, &buf); err != nil {
		t.Fatalf("re-encoding %d accepted events: %v", len(events), err)
	}
	return &buf
}

func sameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("re-read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d re-read as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzReadCSV feeds arbitrary bytes to ReadCSV: it must never panic,
// and any input it accepts must re-encode through WriteCSV and re-read
// to the same events.
func FuzzReadCSV(f *testing.F) {
	hdr := strings.Join(csvHeader, ",") + "\n"
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + "client,3,1,65536,65536,10,25,15,true,\n"))
	f.Add([]byte(hdr + "fetch,-1,0,0,1048576,0,7,7,false,\"io: short, read\"\n"))
	f.Add([]byte(hdr + "rotate,1,0,zzz,0,10,20,10,false,\n"))
	f.Add([]byte(hdr + "client,1,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		buf := reencode(t, events, func(tr *Tracer, b *bytes.Buffer) error { return tr.WriteCSV(b) })
		again, err := ReadCSV(buf)
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v", err)
		}
		sameEvents(t, again, events)
	})
}

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL: it must never
// panic, and any input it accepts must re-encode through WriteJSONL and
// re-read to the same events.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"kind":1,"stream":3,"disk":1,"offset":65536,"length":65536,"startNanos":10,"endNanos":25,"hit":true}` + "\n"))
	f.Add([]byte(`{"kind":2,"stream":-1,"disk":0,"offset":0,"length":1048576,"startNanos":0,"endNanos":7,"err":"io"}` + "\n"))
	f.Add([]byte(`{"kind":1,"stream":` + "\n"))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		buf := reencode(t, events, func(tr *Tracer, b *bytes.Buffer) error { return tr.WriteJSONL(b) })
		again, err := ReadJSONL(buf)
		if err != nil {
			t.Fatalf("re-reading WriteJSONL output: %v", err)
		}
		sameEvents(t, again, events)
	})
}
