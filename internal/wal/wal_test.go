package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
)

func sampleEntries() []pdt.RebuildEntry {
	return []pdt.RebuildEntry{
		{SID: 0, Kind: pdt.KindIns, Ins: types.Row{types.Int(1), types.Str("a"), types.Float(1.5), types.BoolVal(true), types.DateVal(100)}},
		{SID: 2, Kind: pdt.KindDel, Del: types.Row{types.Int(9)}},
		{SID: 5, Kind: 2, Mod: types.Float(2.25)},
		{SID: 5, Kind: 3, Mod: types.Str("mod")},
		{SID: 7, Kind: 1, Mod: types.Int(-42)},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	lsn1, err := w.Append("orders", sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := w.Append("lineitem", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("LSNs = %d, %d", lsn1, lsn2)
	}
	recs, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records", len(recs))
	}
	if recs[0].LSN != 1 || recs[0].Table != "orders" {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if !reflect.DeepEqual(recs[0].Entries, sampleEntries()) {
		t.Fatalf("entries differ:\n%+v\n%+v", recs[0].Entries, sampleEntries())
	}
	if recs[1].Table != "lineitem" || len(recs[1].Entries) != 0 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
}

func TestReplayEmpty(t *testing.T) {
	recs, err := Replay(bytes.NewReader(nil))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty replay: %v, %d records", err, len(recs))
	}
}

func TestReplayStopsAtCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append("t", sampleEntries()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// flip a bit in the CRC
	data[5] ^= 0x01
	recs, err := Replay(bytes.NewReader(data))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("corrupt tail: err = %v, want ErrTornTail", err)
	}
	if len(recs) != 0 {
		t.Fatal("corrupt record accepted")
	}
}

func TestReplayTruncatedHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append("t", nil); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(bytes.NewReader(buf.Bytes()[:5]))
	if !errors.Is(err, ErrTornTail) || len(recs) != 0 {
		t.Fatalf("truncated header: %v, %d records (want ErrTornTail, 0)", err, len(recs))
	}
}

// TestReplayTornTailEveryOffset is the byte-level regression for the
// ErrTornTail contract: whatever prefix of the final record survives a crash
// — any cut from the first header byte to one short of the full record —
// Replay must return exactly the earlier records plus ErrTornTail, never an
// error on the prefix and never a phantom record.
func TestReplayTornTailEveryOffset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append("t", sampleEntries()); err != nil {
		t.Fatal(err)
	}
	prefixLen := buf.Len()
	if _, err := w.Append("t", sampleEntries()[:2]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// cut == prefixLen is a clean boundary, not a tear; start one byte in.
	for cut := prefixLen + 1; cut < len(data); cut++ {
		recs, err := Replay(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut at %d/%d: err = %v, want ErrTornTail", cut, len(data), err)
		}
		if len(recs) != 1 || recs[0].LSN != 1 {
			t.Fatalf("cut at %d/%d: %d records, want the intact first record", cut, len(data), len(recs))
		}
	}
	// And the intact log replays cleanly, for contrast.
	recs, err := Replay(bytes.NewReader(data))
	if err != nil || len(recs) != 2 {
		t.Fatalf("intact log: %v, %d records", err, len(recs))
	}
}

func TestRebuildFromDump(t *testing.T) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
	}, []int{0})
	p := pdt.New(schema, 4)
	if err := p.Insert(0, types.Row{types.Int(5), types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Modify(0, 1, types.Int(9)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append("t", p.Dump()); err != nil {
		t.Fatal(err)
	}
	recs, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pdt.Rebuild(schema, 4, recs[0].Entries)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Entries(), p2.Entries()
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// flakyWriter fails every write while tripped.
type flakyWriter struct {
	buf     bytes.Buffer
	tripped bool
}

func (f *flakyWriter) Write(p []byte) (int, error) {
	if f.tripped {
		return 0, errors.New("disk full")
	}
	return f.buf.Write(p)
}

// TestAppendFailureIsFailStop: a failed append must not consume an LSN, must
// not leave the record lingering in the buffer (where a later flush would
// make an aborted commit durable), and must poison the writer.
func TestAppendFailureIsFailStop(t *testing.T) {
	rec := []pdt.RebuildEntry{{SID: 1, Kind: pdt.KindDel, Del: types.Row{types.Int(1)}}}
	f := &flakyWriter{}
	w := NewWriter(f)
	if _, err := w.Append("t", rec); err != nil {
		t.Fatal(err)
	}
	f.tripped = true
	if _, err := w.Append("t", rec); err == nil {
		t.Fatal("append over failing device succeeded")
	}
	if w.LSN() != 1 {
		t.Fatalf("failed append consumed LSN: %d", w.LSN())
	}
	// The writer is poisoned: even with the device healthy again, nothing of
	// the failed record may surface, and appends keep failing.
	f.tripped = false
	if _, err := w.Append("t", rec); err == nil {
		t.Fatal("poisoned writer accepted another append")
	}
	recs, err := Replay(bytes.NewReader(f.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("log holds %d records (want only the pre-failure one): %+v", len(recs), recs)
	}
}

// TestAppendGroupRoundTrip: a group append is byte-identical to the same
// records appended one by one — consecutive LSNs, per-record frames, the
// same replay.
func TestAppendGroupRoundTrip(t *testing.T) {
	group := []GroupRecord{
		{LSN: 2, Table: "orders", Entries: sampleEntries()},
		{LSN: 3, Table: "lineitem", Entries: nil},
		{LSN: 4, Table: "orders", Entries: sampleEntries()[:2]},
	}
	var grouped, single bytes.Buffer
	gw := NewWriter(&grouped)
	if _, err := gw.Append("seed", sampleEntries()); err != nil {
		t.Fatal(err)
	}
	if err := gw.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if gw.LSN() != 4 {
		t.Fatalf("group LSNs end at %d, want 4", gw.LSN())
	}
	sw := NewWriter(&single)
	if _, err := sw.Append("seed", sampleEntries()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range group {
		if _, err := sw.Append(rec.Table, rec.Entries); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(grouped.Bytes(), single.Bytes()) {
		t.Fatal("group append produced different bytes than per-record appends")
	}
	recs, err := Replay(bytes.NewReader(grouped.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	if recs[2].Table != "lineitem" || len(recs[2].Entries) != 0 {
		t.Fatalf("group record 1 = %+v", recs[2])
	}
}

// TestAppendGroupFailureIsFailStop: a failed group consumes no LSNs, poisons
// the writer collectively, and none of the group's records may surface.
func TestAppendGroupFailureIsFailStop(t *testing.T) {
	rec := []pdt.RebuildEntry{{SID: 1, Kind: pdt.KindDel, Del: types.Row{types.Int(1)}}}
	f := &flakyWriter{}
	w := NewWriter(f)
	if _, err := w.Append("t", rec); err != nil {
		t.Fatal(err)
	}
	f.tripped = true
	group := []GroupRecord{{LSN: 2, Table: "t", Entries: rec}, {LSN: 3, Table: "t", Entries: rec}, {LSN: 4, Table: "t", Entries: rec}}
	if err := w.AppendGroup(group); err == nil {
		t.Fatal("group append over failing device succeeded")
	}
	if w.LSN() != 1 {
		t.Fatalf("failed group consumed LSNs: %d", w.LSN())
	}
	f.tripped = false
	if err := w.AppendGroup(group); err == nil {
		t.Fatal("poisoned writer accepted another group")
	}
	recs, err := Replay(bytes.NewReader(f.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("log holds %d records (want only the pre-failure one): %+v", len(recs), recs)
	}
}

// TestAppendGroupEmpty: an empty group is a caller bug, reported without
// touching the clock or the stream.
func TestAppendGroupEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendGroup(nil); err == nil {
		t.Fatal("empty group accepted")
	}
	if w.LSN() != 0 || buf.Len() != 0 {
		t.Fatalf("empty group moved state: lsn=%d bytes=%d", w.LSN(), buf.Len())
	}
	if _, err := w.Append("t", nil); err != nil {
		t.Fatalf("writer poisoned by empty group: %v", err)
	}
}
