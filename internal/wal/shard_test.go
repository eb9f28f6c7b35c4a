package wal

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAppendGroupGappedLSNs: a batch whose LSNs leave gaps before and inside
// it (the shared clock's other shards own 1..4, 6 and 8..11) round-trips
// through a Writer and through a FileLog, and a batch whose LSNs descend is
// rejected and poisons the writer without touching the stream.
func TestAppendGroupGappedLSNs(t *testing.T) {
	recs := []GroupRecord{
		{LSN: 5, Table: "table", Shard: 2, Entries: sampleEntries()},
		{LSN: 7, Table: "table", Shard: 2, Parts: []uint32{0, 2}, Entries: nil},
		{LSN: 12, Table: "table", Shard: 2, Entries: sampleEntries()[:1]},
	}
	check := func(t *testing.T, got []Record) {
		t.Helper()
		if len(got) != len(recs) {
			t.Fatalf("replayed %d records, want %d", len(got), len(recs))
		}
		for i, r := range got {
			want := recs[i]
			if r.LSN != want.LSN || r.Shard != want.Shard || !reflect.DeepEqual(r.Parts, want.Parts) ||
				len(r.Entries) != len(want.Entries) {
				t.Fatalf("record %d = %+v, want %+v", i, r, want)
			}
		}
		if !reflect.DeepEqual(got[0].Entries, sampleEntries()) {
			t.Fatal("entries did not roundtrip")
		}
	}

	t.Run("writer", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.AppendGroup(recs); err != nil {
			t.Fatal(err)
		}
		if w.LSN() != 12 {
			t.Fatalf("LSN after gapped append = %d, want 12", w.LSN())
		}
		size := buf.Len()
		// Descending LSNs inside one batch are rejected and poison the
		// writer; nothing of the batch reaches the stream.
		bad := []GroupRecord{{LSN: 14, Table: "table"}, {LSN: 13, Table: "table"}}
		if err := w.AppendGroup(bad); err == nil {
			t.Fatal("descending AppendGroup accepted")
		}
		if w.Err() == nil {
			t.Fatal("writer not poisoned after descending LSNs")
		}
		if _, err := w.Append("table", nil); err == nil {
			t.Fatal("poisoned writer accepted an append")
		}
		if buf.Len() != size || w.LSN() != 12 {
			t.Fatalf("rejected batch moved the stream: %d bytes (was %d), LSN %d", buf.Len(), size, w.LSN())
		}
		got, err := Replay(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})

	t.Run("filelog", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendGroup(recs); err != nil {
			t.Fatal(err)
		}
		if l.LSN() != 12 {
			t.Fatalf("LSN after gapped append = %d, want 12", l.LSN())
		}
		if err := l.AppendGroup([]GroupRecord{{LSN: 12, Table: "table"}}); err == nil {
			t.Fatal("a batch repeating the stream's last LSN was accepted")
		}
		l.Close()
		l2, got, err := OpenFileLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		check(t, got)
		if l2.LSN() != 12 {
			t.Fatalf("reopened log resumes at LSN %d, want 12", l2.LSN())
		}
	})
}

func rec(lsn uint64, shard uint32, parts ...uint32) Record {
	return Record{LSN: lsn, Table: "table", Shard: shard, Parts: parts}
}

func TestCompleteGroups(t *testing.T) {
	// Three streams. LSN 3 is a complete cross-shard group on {0,1}; LSN 5 is
	// torn — stream 2 never got its record (crash between appends); LSN 7 is
	// complete only because stream 1's absence is explained by its checkpoint
	// having truncated everything at or below LSN 8.
	streams := [][]Record{
		{rec(1, 0), rec(3, 0, 0, 1), rec(5, 0, 0, 2), rec(7, 0, 0, 1)},
		{rec(2, 1), rec(3, 1, 0, 1)},
		{rec(4, 2)},
	}
	base := []uint64{0, 8, 0}
	got := CompleteGroups(streams, base)
	want := [][]Record{
		{rec(1, 0), rec(3, 0, 0, 1), rec(7, 0, 0, 1)},
		{rec(2, 1), rec(3, 1, 0, 1)},
		{rec(4, 2)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CompleteGroups:\n got %+v\nwant %+v", got, want)
	}
}

func TestCompleteGroupsUnknownParticipant(t *testing.T) {
	// A participant index beyond the stream set (corrupt or from a larger
	// former topology) can never be verified complete: the record is dropped.
	streams := [][]Record{{rec(1, 0, 0, 9)}}
	got := CompleteGroups(streams, []uint64{0})
	if len(got[0]) != 0 {
		t.Fatalf("kept a group with an unknown participant: %+v", got[0])
	}
}
