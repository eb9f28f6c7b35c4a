package colstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"pdtstore/internal/storage"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func buildFileStore(t *testing.T, dev *Device, n, blockRows int, compressed bool, path string) *Store {
	t.Helper()
	b, err := NewFileBuilder(testSchema(), dev, blockRows, compressed, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{
			types.Int(int64(i * 2)),
			types.Str(fmt.Sprintf("s%04d", i)),
			types.Float(float64(i) / 2),
			types.BoolVal(i%3 == 0),
		}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func scanAllRows(t *testing.T, s *Store) []types.Row {
	t.Helper()
	cols := []int{0, 1, 2, 3}
	sc := s.NewScanner(cols, 0, s.NRows())
	out := vector.NewBatch([]types.Kind{types.Int64, types.String, types.Float64, types.Bool}, 64)
	var rows []types.Row
	for {
		out.Reset()
		n, err := sc.Next(out, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return rows
		}
		for i := 0; i < n; i++ {
			rows = append(rows, out.Row(i).Clone())
		}
	}
}

// TestFileStoreMatchesRAMStore: the same rows through the file-backed path
// must scan identically to the RAM-resident path, both hot and after the
// buffer pool is dropped (forcing real preads).
func TestFileStoreMatchesRAMStore(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "t.seg")
		dev := NewDevice()
		fs := buildFileStore(t, dev, 100, 16, compressed, path)
		defer fs.Close()
		ram := buildStore(t, 100, 16, compressed)

		want := scanAllRows(t, ram)
		got := scanAllRows(t, fs)
		if len(got) != len(want) {
			t.Fatalf("compressed=%v: %d rows, want %d", compressed, len(got), len(want))
		}
		for i := range want {
			if types.CompareRows(got[i], want[i]) != 0 || got[i][1].S != want[i][1].S {
				t.Fatalf("compressed=%v row %d: %v != %v", compressed, i, got[i], want[i])
			}
		}
		dev.DropCaches()
		dev.ResetStats()
		cold := scanAllRows(t, fs)
		if len(cold) != len(want) {
			t.Fatalf("cold rescan lost rows")
		}
		bytes, reads := dev.Stats()
		if bytes == 0 || reads == 0 {
			t.Fatalf("cold file scan charged no I/O (bytes=%d reads=%d)", bytes, reads)
		}
		if bytes != fs.EncodedSize(-1) {
			t.Fatalf("cold full scan read %d bytes, EncodedSize says %d", bytes, fs.EncodedSize(-1))
		}
	}
}

// TestFileStoreReopen: a finished segment reopened through OpenSegment +
// FromSegmentChain must serve the same data and metadata.
func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.seg")
	dev := NewDevice()
	fs := buildFileStore(t, dev, 75, 16, true, path)
	want := scanAllRows(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	seg, err := storage.OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	re, err := FromSegmentChain([]*storage.Segment{seg}, NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NRows() != 75 || re.BlockRows() != 16 || !re.Compressed() {
		t.Fatalf("reopened meta: nrows=%d blockRows=%d compressed=%v", re.NRows(), re.BlockRows(), re.Compressed())
	}
	got := scanAllRows(t, re)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if types.CompareRows(got[i], want[i]) != 0 {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
	// Point reads and the sparse index survive the round trip too.
	if sid, err := re.LowerBound(types.Row{types.Int(20)}); err != nil || sid != 10 || rowAt(t, re, sid, []int{0, 1})[0].I != 20 {
		t.Fatalf("LowerBound(20) = %d, %v", sid, err)
	}
	from, to := re.SIDRange(types.Row{types.Int(40)}, types.Row{types.Int(60)})
	if from >= to || to > re.NRows() {
		t.Fatalf("SIDRange = [%d, %d)", from, to)
	}
}

// TestFileStoreEvictRechargesIO: evicting a file-backed store drops its pool
// bytes, so the next read really hits the disk again.
func TestFileStoreEvictRechargesIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.seg")
	dev := NewDevice()
	fs := buildFileStore(t, dev, 64, 16, false, path)
	defer fs.Close()

	scanAllRows(t, fs)
	if dev.PoolBlocks() == 0 {
		t.Fatal("scan left nothing in the pool")
	}
	dev.ResetStats()
	scanAllRows(t, fs)
	if bytes, _ := dev.Stats(); bytes != 0 {
		t.Fatalf("warm scan charged %d bytes", bytes)
	}
	fs.Evict()
	if dev.PoolBlocks() != 0 {
		t.Fatalf("%d pool blocks survived Evict", dev.PoolBlocks())
	}
	dev.ResetStats()
	scanAllRows(t, fs)
	if bytes, _ := dev.Stats(); bytes == 0 {
		t.Fatal("post-evict scan charged no bytes")
	}
}

// TestFileBuilderAbortRemovesPartialFile: the orderly error path leaves no
// stray segment behind.
func TestFileBuilderAbortRemovesPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.seg")
	b, err := NewFileBuilder(testSchema(), nil, 4, false, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		row := types.Row{types.Int(int64(i)), types.Str("x"), types.Float(0), types.BoolVal(false)}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	b.Abort()
	if _, err := storage.OpenSegment(path); err == nil {
		t.Fatal("aborted segment still opens")
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish after Abort must fail")
	}
}
