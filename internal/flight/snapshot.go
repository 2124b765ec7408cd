package flight

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Snapshot is one consistent-enough copy of every ring: per-ring event
// slices, each ordered by Seq. "Consistent enough" because the rings
// keep recording while the snapshot walks them — each slot is either a
// whole event or skipped, never torn.
type Snapshot struct {
	Version int       `json:"version"`
	Rings   [][]Event `json:"rings"`
}

// snapshotVersion is the binary format version.
const snapshotVersion = 1

// Snapshot copies every ring. Nil recorders yield an empty snapshot.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Version: snapshotVersion}
	if r == nil {
		return s
	}
	s.Rings = make([][]Event, len(r.rings))
	for i, ring := range r.rings {
		s.Rings[i] = ring.snapshot()
	}
	return s
}

// Merged merges the shard rings into one global timeline ordered by
// the recorder-wide sequence.
func (s *Snapshot) Merged() []Event {
	total := 0
	for _, r := range s.Rings {
		total += len(r)
	}
	out := make([]Event, 0, total)
	for _, r := range s.Rings {
		out = append(out, r...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Binary snapshot format (little endian):
//
//	magic   [4]byte "SQFL"
//	version uint16
//	rings   uint16
//	per ring:
//	  count uint32
//	  count × 56-byte packed events (the 7 slot words)
//
// The shard index is the ring's position; it is not stored per event.

// snapshotMagic guards the binary format.
const snapshotMagic = "SQFL"

// WriteTo encodes the snapshot in the binary format.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var hdr [8]byte
	copy(hdr[:4], snapshotMagic)
	binary.LittleEndian.PutUint16(hdr[4:], uint16(snapshotVersion))
	binary.LittleEndian.PutUint16(hdr[6:], uint16(len(s.Rings)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return n, err
	}
	n += int64(len(hdr))
	var rec [8 * wordsPerEvent]byte
	for _, ring := range s.Rings {
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], uint32(len(ring)))
		if _, err := bw.Write(cnt[:]); err != nil {
			return n, err
		}
		n += 4
		for i := range ring {
			var w [wordsPerEvent]uint64
			ring[i].pack(&w)
			for k, v := range w {
				binary.LittleEndian.PutUint64(rec[k*8:], v)
			}
			if _, err := bw.Write(rec[:]); err != nil {
				return n, err
			}
			n += int64(len(rec))
		}
	}
	return n, bw.Flush()
}

// ErrBadSnapshot reports a malformed snapshot input.
var ErrBadSnapshot = errors.New("flight: bad snapshot")

// maxSnapshotRingEvents bounds a decoded ring so a corrupt count field
// cannot drive a giant allocation.
const maxSnapshotRingEvents = 1 << 24

// ReadSnapshot decodes a snapshot in either format, sniffing the first
// byte: '{' selects JSON (the /debug/flight?format=json output),
// anything else the binary format.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if first[0] == '{' {
		var s Snapshot
		if err := json.NewDecoder(br).Decode(&s); err != nil {
			return nil, fmt.Errorf("%w: json: %v", ErrBadSnapshot, err)
		}
		return &s, nil
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if string(hdr[:4]) != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, v, snapshotVersion)
	}
	rings := int(binary.LittleEndian.Uint16(hdr[6:]))
	// Rings and events grow as they are read, never to the header's
	// counts: a 12-byte input claiming a 1<<24-event ring must fail at
	// its first missing event, not reserve a gigabyte first.
	s := &Snapshot{Version: snapshotVersion, Rings: [][]Event{}}
	var rec [8 * wordsPerEvent]byte
	for i := 0; i < rings; i++ {
		var cnt [4]byte
		if _, err := io.ReadFull(br, cnt[:]); err != nil {
			return nil, fmt.Errorf("%w: ring %d count: %v", ErrBadSnapshot, i, err)
		}
		n := binary.LittleEndian.Uint32(cnt[:])
		if n > maxSnapshotRingEvents {
			return nil, fmt.Errorf("%w: ring %d claims %d events", ErrBadSnapshot, i, n)
		}
		events := []Event{}
		for j := uint32(0); j < n; j++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("%w: ring %d event %d: %v", ErrBadSnapshot, i, j, err)
			}
			var w [wordsPerEvent]uint64
			for k := range w {
				w[k] = binary.LittleEndian.Uint64(rec[k*8:])
			}
			events = append(events, unpack(&w, uint16(i)))
		}
		s.Rings = append(s.Rings, events)
	}
	return s, nil
}

// Handler serves the recorder's snapshot: the binary format by
// default (Content-Type application/octet-stream), JSON with
// ?format=json. Mount it at /debug/flight.
func Handler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := rec.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			_ = enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = snap.WriteTo(w)
	})
}
