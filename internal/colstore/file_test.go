package colstore

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"pdtstore/internal/storage"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func buildFileStore(t testing.TB, dev *Device, n, blockRows int, compressed bool, path string) *Store {
	t.Helper()
	b, err := NewFileBuilder(testSchema(), dev, blockRows, compressed, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{
			types.Int(int64(i * 2)), // even keys so gaps exist
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

// observeLifecycle builds an image of 100 rows at path (in memory when it is
// empty) and drives it through cold scan → warm scan → DropCaches → cold scan
// → CloneShared → Close of the original → scan of the clone → Close of the
// clone, recording everything a reader can observe on the way: metadata
// first, then the device's counters and pool size after every step.
func observeLifecycle(t *testing.T, path string) []string {
	t.Helper()
	dev := NewDevice()
	s := buildFileStore(t, dev, 100, 16, true, path)
	var seen []string
	see := func(format string, args ...any) { seen = append(seen, fmt.Sprintf(format, args...)) }
	step := func(name string) {
		bytes, reads := dev.Stats()
		see("%s: %d bytes in %d reads charged, %d blocks pooled", name, bytes, reads, dev.PoolBlocks())
		dev.ResetStats()
	}
	see("sparse %v, refs %v, %d bytes encoded", s.sparse, s.BlockRefCounts(), s.EncodedSize(-1))
	for c := 0; c < s.Schema().NumCols(); c++ {
		for blk := 0; blk < s.NumBlocks(); blk++ {
			z, ok := s.Zone(c, blk)
			see("column %d block %d: zone %+v %v", c, blk, z, ok)
		}
		see("column %d: %d bytes encoded", c, s.EncodedSize(c))
	}
	want := scanAllRows(t, s)
	step("cold scan")
	scanAllRows(t, s)
	step("warm scan")
	dev.DropCaches()
	step("DropCaches")
	scanAllRows(t, s)
	step("cold again")
	clone := s.CloneShared()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	step("original closed")
	if got := scanAllRows(t, clone); !reflect.DeepEqual(got, want) {
		t.Fatalf("path %q: the clone reads %d rows that differ from the original's %d", path, len(got), len(want))
	}
	if bytes, _ := dev.Stats(); bytes != 0 || dev.PoolBlocks() == 0 {
		t.Fatalf("path %q: the clone's scan charged %d bytes with %d blocks pooled; it shares the original's warm segments", path, bytes, dev.PoolBlocks())
	}
	step("clone scan")
	if err := clone.Close(); err != nil {
		t.Fatal(err)
	}
	step("clone closed")
	return seen
}

// TestResidencyIsInvisible: a memory and a file image of the same rows show a
// reader the same zones, sparse index, sizes, block references and — step by
// step through an image's life — the same device counters and pool.
func TestResidencyIsInvisible(t *testing.T) {
	mem := observeLifecycle(t, "")
	file := observeLifecycle(t, filepath.Join(t.TempDir(), "t.seg"))
	if len(mem) != len(file) {
		t.Fatalf("%d observations in memory, %d from the file", len(mem), len(file))
	}
	for i := range mem {
		if mem[i] != file[i] {
			t.Errorf("memory: %s\n  file: %s", mem[i], file[i])
		}
	}
	if last := mem[len(mem)-1]; last != "clone closed: 0 bytes in 0 reads charged, 0 blocks pooled" {
		t.Errorf("after the last Close: %s", last)
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
	if sid, err := lowerBound(re, types.Row{types.Int(20)}); err != nil || sid != 10 || rowAt(t, re, sid, []int{0, 1})[0].I != 20 {
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
