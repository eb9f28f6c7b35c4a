package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"pdtstore/internal/pdt"
)

// frame wraps a record body in the header Replay checks: its length and CRC.
func frame(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// hostileBody is a record body that must not decode.
type hostileBody struct {
	name string
	body []byte
}

// hostileBodies are record bodies whose counts claim far more than their
// bytes hold: 2^31 entries, participants, row values or table-name bytes,
// and one valid record with a byte past its last entry.
func hostileBodies() []hostileBody {
	const huge = 1 << 31
	head := func(table string) []byte { // LSN, table name, shard
		b := binary.LittleEndian.AppendUint64(nil, 9)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(table)))
		b = append(b, table...)
		return binary.LittleEndian.AppendUint32(b, 0)
	}
	u32 := binary.LittleEndian.AppendUint32
	entries := u32(u32(head("t"), 0), huge)
	parts := u32(head("t"), huge)
	values := u32(u32(head("t"), 0), 1)
	values = binary.LittleEndian.AppendUint64(values, 3)
	values = binary.LittleEndian.AppendUint16(values, pdt.KindIns)
	values = u32(values, huge)
	name := binary.LittleEndian.AppendUint64(nil, 9)
	name = u32(name, huge)
	slack := make([]byte, 64) // a little room behind each count, never enough
	return []hostileBody{
		{"entries", append(entries, slack...)},
		{"parts", append(parts, slack...)},
		{"values", append(values, slack...)},
		{"name", append(name, slack...)},
		{"trailing", append(encodeRecord(nil, Record{LSN: 1, Table: "t", Entries: sampleEntries()}), 0)},
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayRejectsHostileCounts: a CRC-valid record whose entry, participant,
// row-value or string count claims more than its bytes hold is corruption —
// an error from Replay, not a torn tail and not a panic — and nothing is
// allocated from the count.
func TestReplayRejectsHostileCounts(t *testing.T) {
	for _, h := range hostileBodies() {
		t.Run(h.name, func(t *testing.T) {
			var recs []Record
			var err error
			n := allocated(func() { recs, err = Replay(bytes.NewReader(frame(h.body))) })
			if err == nil || errors.Is(err, ErrTornTail) {
				t.Fatalf("Replay = %d records, %v; want a corrupt-record error", len(recs), err)
			}
			if n >= 1<<20 {
				t.Fatalf("Replay allocated %d bytes for a %d-byte record", n, len(h.body))
			}
		})
	}
}

// FuzzDecodeRecord: any body decodes to an error or to a record whose
// encoding is the body itself, without a panic and without allocating more
// than a small multiple of the body (a count is never trusted).
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range []Record{
		{LSN: 1, Table: "orders", Entries: sampleEntries()},
		{LSN: 7, Table: "t", Shard: 2, Parts: []uint32{0, 2, 5}, Entries: sampleEntries()},
		{LSN: 8, Table: "t", Shard: 5, Parts: []uint32{2, 5}, Entries: sampleEntries()[:2]},
		{LSN: 2, Table: "lineitem"},
	} {
		f.Add(encodeRecord(nil, rec))
	}
	for _, h := range hostileBodies() {
		f.Add(h.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var rec Record
		var err error
		n := allocated(func() { rec, err = decodeRecord(body) })
		if limit := 64*uint64(len(body)) + 64<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		if got := encodeRecord(nil, rec); !bytes.Equal(got, body) {
			t.Fatalf("decoded %+v re-encodes to %x, body %x", rec, got, body)
		}
	})
}

// TestReplayBoundsAllocationByStream: a frame header may claim up to 1 GiB;
// Replay checks the claim against the bytes the stream holds before it sizes
// a buffer from it, so the header is a tear that costs next to nothing.
func TestReplayBoundsAllocationByStream(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf).Append("t", sampleEntries()); err != nil {
		t.Fatal(err)
	}
	stream := binary.LittleEndian.AppendUint32(buf.Bytes(), maxRecordSize)
	stream = binary.LittleEndian.AppendUint32(stream, 0)
	var recs []Record
	var err error
	n := allocated(func() { recs, err = Replay(bytes.NewReader(stream)) })
	if len(recs) != 1 || !errors.Is(err, ErrTornTail) {
		t.Fatalf("Replay = %d records, %v; want the one record and a torn tail", len(recs), err)
	}
	if n >= 1<<20 {
		t.Fatalf("Replay allocated %d bytes for a %d-byte stream", n, len(stream))
	}
}

// FuzzReplay: any stream — headers, CRCs and bodies — replays to records that
// re-frame to a prefix of it, and then a nil error at its end, ErrTornTail, or
// the decode error of the CRC-valid frame after the prefix; never a panic,
// and never an allocation out of proportion to the stream.
func FuzzReplay(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range []Record{{Table: "orders", Entries: sampleEntries()}, {Table: "t"}} {
		if _, err := w.Append(rec.Table, rec.Entries); err != nil {
			f.Fatal(err)
		}
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(binary.LittleEndian.AppendUint32(slices.Clone(good), maxRecordSize), 0, 0, 0, 0))
	f.Add(append(slices.Clone(good), frame(hostileBodies()[0].body)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var recs []Record
		var err error
		n := allocated(func() { recs, err = Replay(bytes.NewReader(stream)) })
		if limit := 64*uint64(len(stream)) + 64<<10; n > limit {
			t.Fatalf("replaying %d bytes allocated %d", len(stream), n)
		}
		var prefix []byte
		for _, rec := range recs {
			prefix = append(prefix, frame(encodeRecord(nil, rec))...)
		}
		if !bytes.HasPrefix(stream, prefix) {
			t.Fatalf("%d records re-frame to %x, not a prefix of %x", len(recs), prefix, stream)
		}
		rest := stream[len(prefix):]
		switch {
		case err == nil:
			if len(rest) > 0 {
				t.Fatalf("a clean end with %d bytes left", len(rest))
			}
		case !errors.Is(err, ErrTornTail):
			size := int(binary.LittleEndian.Uint32(rest))
			if body := rest[8 : 8+size]; crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:]) {
				t.Fatalf("%v at a frame that fails its CRC", err)
			} else if _, derr := decodeRecord(body); derr == nil {
				t.Fatalf("%v at a frame that decodes", err)
			}
		}
	})
}
