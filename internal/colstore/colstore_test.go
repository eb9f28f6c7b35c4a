package colstore

import (
	"fmt"
	"testing"

	"pdtstore/internal/compress"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "s", Kind: types.String},
		{Name: "f", Kind: types.Float64},
		{Name: "b", Kind: types.Bool},
	}, []int{0})
}

func buildStore(t testing.TB, n, blockRows int, compressed bool) *Store {
	t.Helper()
	return buildFileStore(t, nil, n, blockRows, compressed, "")
}

func TestBuildAndMeta(t *testing.T) {
	s := buildStore(t, 100, 16, false)
	if s.NRows() != 100 {
		t.Errorf("NRows = %d", s.NRows())
	}
	if s.NumBlocks() != 7 { // ceil(100/16)
		t.Errorf("NumBlocks = %d", s.NumBlocks())
	}
	if s.BlockRows() != 16 || s.Compressed() {
		t.Error("meta broken")
	}
	if s.EncodedSize(-1) == 0 || s.EncodedSize(0) == 0 {
		t.Error("EncodedSize zero")
	}
	if s.EncodedSize(0) >= s.EncodedSize(-1) {
		t.Error("single column should be smaller than whole table")
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	b := NewBuilder(testSchema(), nil, 4, false)
	row := func(k int64) types.Row {
		return types.Row{types.Int(k), types.Str("x"), types.Float(0), types.BoolVal(false)}
	}
	if err := b.Add(row(5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(row(5)); err == nil {
		t.Error("duplicate key accepted")
	}
	b2 := NewBuilder(testSchema(), nil, 4, false)
	if err := b2.Add(row(5)); err != nil {
		t.Fatal(err)
	}
	if err := b2.Add(row(3)); err == nil {
		t.Error("descending key accepted")
	}
}

func TestBuilderRejectsBadRow(t *testing.T) {
	b := NewBuilder(testSchema(), nil, 4, false)
	if err := b.Add(types.Row{types.Int(1)}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("Finish should propagate builder error")
	}
}

// rowAt reads one tuple by position through a one-row scan window.
func rowAt(t testing.TB, s *Store, sid uint64, cols []int) types.Row {
	t.Helper()
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = s.Schema().Cols[c].Kind
	}
	out := vector.NewBatch(kinds, 1)
	if n, err := s.NewScanner(cols, sid, sid+1).Next(out, 1); err != nil || n != 1 {
		t.Fatalf("one-row window at SID %d: n=%d err=%v", sid, n, err)
	}
	return out.Row(0)
}

// TestLowerBoundAndWindowedScan covers point access on the stable image:
// LowerBound finds the SID of every key (present, in a gap, before the first,
// past the last, equal to a block's first key) and a one-row scan window at
// that SID reads the tuple back.
func TestLowerBoundAndWindowedScan(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		s := buildStore(t, 100, 16, compressed)
		for _, sid := range []uint64{0, 15, 16, 17, 50, 99} {
			i := int64(sid)
			for _, k := range []int64{i * 2, i*2 - 1} { // the key itself, and the gap below it
				got, err := lowerBound(s, types.Row{types.Int(k)})
				if err != nil || got != sid {
					t.Fatalf("compressed=%v LowerBound(%d) = %d, %v; want %d", compressed, k, got, err, sid)
				}
			}
			row := rowAt(t, s, sid, []int{0, 1, 2, 3})
			if row[0].I != i*2 || row[1].S != fmt.Sprintf("s%04d", i) || row[2].F != float64(i)/2 || (row[3].I != 0) != (i%3 == 0) {
				t.Errorf("compressed=%v row at %d = %v", compressed, sid, row)
			}
		}
		if got, err := lowerBound(s, types.Row{types.Int(199)}); err != nil || got != 100 {
			t.Errorf("LowerBound past the last key = %d, %v", got, err)
		}
		if n, _ := s.NewScanner([]int{0}, 100, 101).Next(vector.NewBatch([]types.Kind{types.Int64}, 1), 1); n != 0 {
			t.Error("window past the last row produced a row")
		}
	}
	empty, err := NewBuilder(testSchema(), nil, 4, false).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := lowerBound(empty, types.Row{types.Int(1)}); err != nil || got != 0 {
		t.Errorf("LowerBound on an empty store = %d, %v", got, err)
	}
}

// TestLowerBoundTouchesOneBlock pins the I/O shape of the descent: it reads
// the sort-key column of exactly one block, and none at all when the key is a
// block's first key (the sparse index already names its SID) or sorts before
// the first row.
func TestLowerBoundTouchesOneBlock(t *testing.T) {
	s := buildStore(t, 100, 16, true)
	for _, c := range []struct {
		key   int64
		sid   uint64
		reads uint64
	}{{-5, 0, 0}, {0, 0, 0}, {64, 32, 0}, {63, 32, 1}, {66, 33, 1}, {62, 31, 1}, {198, 99, 1}, {500, 100, 1}} {
		s.Device().DropCaches()
		s.Device().ResetStats()
		sid, err := lowerBound(s, types.Row{types.Int(c.key)})
		if _, reads := s.Device().Stats(); err != nil || sid != c.sid || reads != c.reads {
			t.Errorf("LowerBound(%d) = %d, %v with %d block reads; want %d with %d", c.key, sid, err, reads, c.sid, c.reads)
		}
	}
}

// TestLowerBoundAllocatesNothing: an int sort key is searched in its encoded
// block — a binary search of a ForInt or plain block — so on a warm block a
// descent allocates no byte, wherever in the block the key lands.
func TestLowerBoundAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		compressed bool
		scheme     compress.Scheme
	}{{true, compress.ForInt}, {false, compress.PlainInt}} {
		s := buildStore(t, 5000, 1024, c.compressed)
		if enc, err := s.EncodedBlock(0, 1); err != nil || compress.BlockScheme(enc) != c.scheme {
			t.Fatalf("compressed=%v: key block scheme %d, %v; want %d", c.compressed, compress.BlockScheme(enc), err, c.scheme)
		}
		keys := []types.Row{{types.Int(2 * 1030)}, {types.Int(2*2047 + 1)}, {types.Int(2 * 4999)}, {types.Int(2*3000 - 1)}}
		p := s.NewProbe(s.schema.SortKey)
		descend := func() {
			for _, k := range keys {
				if sid, err := p.LowerBound(k); err != nil || sid != uint64((k[0].I+1)/2) {
					t.Fatalf("LowerBound(%v) = %d, %v", k, sid, err)
				}
			}
		}
		if b := allocBytes(descend, 50); b != 0 {
			t.Errorf("compressed=%v: %d warm descents allocate %d bytes", c.compressed, len(keys), b)
		}
		p.Release()
	}
}

// TestLowerBoundCompositeKey searches a two-column sort key whose leading
// column repeats: later key columns are searched only within the rows tied on
// the earlier ones, and a prefix key finds the first row of its group.
func TestLowerBoundCompositeKey(t *testing.T) {
	schema := types.MustSchema([]types.Column{
		{Name: "a", Kind: types.Int64}, {Name: "b", Kind: types.String}, {Name: "v", Kind: types.Int64},
	}, []int{0, 1})
	var rows []types.Row
	for a := 0; a < 40; a++ {
		for b := 0; b < 1+a%4; b++ {
			rows = append(rows, types.Row{types.Int(int64(a * 10)), types.Str(fmt.Sprintf("k%d", b*2)), types.Int(int64(len(rows)))})
		}
	}
	for _, compressed := range []bool{false, true} {
		s, err := BulkLoad(schema, nil, 8, compressed, rows)
		if err != nil {
			t.Fatal(err)
		}
		probes := []types.Row{{types.Int(-1), types.Str("")}, {types.Int(1000), types.Str("")}}
		for _, r := range rows {
			probes = append(probes, types.Row{r[0], r[1]}, types.Row{r[0], types.Str(r[1].S + "x")}, types.Row{r[0]}, types.Row{types.Int(r[0].I + 5)})
		}
		for _, key := range probes {
			want := uint64(len(rows))
			for i, r := range rows {
				if comparePrefix(key, types.Row{r[0], r[1]}) <= 0 {
					want = uint64(i)
					break
				}
			}
			if got, err := lowerBound(s, key); err != nil || got != want {
				t.Fatalf("compressed=%v LowerBound(%v) = %d, %v; want %d", compressed, key, got, err, want)
			}
		}
	}
}

// lowerBound is LowerBound through a key probe over the sort key's columns.
func lowerBound(s *Store, key types.Row) (uint64, error) {
	p := s.NewProbe(s.schema.SortKey)
	defer p.Release()
	return p.LowerBound(key)
}

func scanAll(t *testing.T, s *Store, cols []int, from, to uint64, batchSize int) *vector.Batch {
	t.Helper()
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = s.Schema().Cols[c].Kind
	}
	out := vector.NewBatch(kinds, 64)
	sc := s.NewScanner(cols, from, to)
	for {
		n, err := sc.Next(out, batchSize)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	return out
}

func TestScannerFullAndRange(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		s := buildStore(t, 100, 16, compressed)
		full := scanAll(t, s, []int{0, 2}, 0, s.NRows(), 7)
		if full.Len() != 100 {
			t.Fatalf("full scan returned %d rows", full.Len())
		}
		for i := 0; i < 100; i++ {
			if full.Vecs[0].I[i] != int64(i*2) || full.Vecs[1].F[i] != float64(i)/2 {
				t.Fatalf("row %d wrong: %d %f", i, full.Vecs[0].I[i], full.Vecs[1].F[i])
			}
		}
		// mid-block to mid-block range
		part := scanAll(t, s, []int{1}, 10, 35, 4)
		if part.Len() != 25 {
			t.Fatalf("range scan returned %d rows", part.Len())
		}
		if part.Vecs[0].S[0] != "s0010" || part.Vecs[0].S[24] != "s0034" {
			t.Errorf("range scan content wrong: %q %q", part.Vecs[0].S[0], part.Vecs[0].S[24])
		}
	}
}

func TestScannerClampsRange(t *testing.T) {
	s := buildStore(t, 10, 4, false)
	got := scanAll(t, s, []int{0}, 5, 999, 100)
	if got.Len() != 5 {
		t.Errorf("clamped scan returned %d rows", got.Len())
	}
	empty := scanAll(t, s, []int{0}, 8, 3, 100)
	if empty.Len() != 0 {
		t.Error("inverted range should be empty")
	}
}

func TestDeviceAccounting(t *testing.T) {
	s := buildStore(t, 100, 16, false)
	dev := s.Device()
	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, s, []int{0}, 0, s.NRows(), 50)
	coldBytes, coldReads := dev.Stats()
	if coldBytes != s.EncodedSize(0) {
		t.Errorf("cold scan read %d bytes, column is %d", coldBytes, s.EncodedSize(0))
	}
	if coldReads != uint64(s.NumBlocks()) {
		t.Errorf("cold scan did %d reads, want %d", coldReads, s.NumBlocks())
	}
	// hot rerun: no new bytes
	dev.ResetStats()
	scanAll(t, s, []int{0}, 0, s.NRows(), 50)
	hotBytes, _ := dev.Stats()
	if hotBytes != 0 {
		t.Errorf("hot scan read %d bytes, want 0", hotBytes)
	}
	// cold again after DropCaches
	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, s, []int{0}, 0, s.NRows(), 50)
	again, _ := dev.Stats()
	if again != coldBytes {
		t.Errorf("re-cold scan read %d bytes, want %d", again, coldBytes)
	}
}

func TestEvictReleasesPoolEntries(t *testing.T) {
	dev := NewDevice()
	build := func(n int) *Store {
		b := NewBuilder(testSchema(), dev, 16, false)
		for i := 0; i < n; i++ {
			if err := b.Add(types.Row{types.Int(int64(i)), types.Str("s"), types.Float(0), types.BoolVal(false)}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	old, fresh := build(100), build(100)
	scanAll(t, old, []int{0, 1}, 0, old.NRows(), 50)
	scanAll(t, fresh, []int{0, 1}, 0, fresh.NRows(), 50)
	both := dev.PoolBlocks()
	old.Evict()
	if got := dev.PoolBlocks(); got != both/2 {
		t.Fatalf("pool holds %d blocks after evicting one of two stores, want %d", got, both/2)
	}
	// The evicted store stays readable; its fetches are cold again, and the
	// surviving store's blocks stay hot.
	dev.ResetStats()
	scanAll(t, old, []int{0, 1}, 0, old.NRows(), 50)
	if bytes, _ := dev.Stats(); bytes == 0 {
		t.Fatal("re-scan of evicted store charged no cold reads")
	}
	dev.ResetStats()
	scanAll(t, fresh, []int{0, 1}, 0, fresh.NRows(), 50)
	if bytes, _ := dev.Stats(); bytes != 0 {
		t.Fatalf("eviction of a sibling store cooled %d bytes of the survivor", bytes)
	}
}

func TestIOVolumeScalesWithColumns(t *testing.T) {
	s := buildStore(t, 1000, 64, false)
	dev := s.Device()
	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, s, []int{0}, 0, s.NRows(), 128)
	one, _ := dev.Stats()
	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, s, []int{0, 1, 2}, 0, s.NRows(), 128)
	three, _ := dev.Stats()
	if three <= one {
		t.Errorf("3-column scan (%d B) not larger than 1-column (%d B)", three, one)
	}
}

func TestCompressionShrinksSortedKeys(t *testing.T) {
	raw := buildStore(t, 5000, 256, false)
	comp := buildStore(t, 5000, 256, true)
	if comp.EncodedSize(0) >= raw.EncodedSize(0) {
		t.Errorf("compressed key column %d B >= raw %d B", comp.EncodedSize(0), raw.EncodedSize(0))
	}
}

func TestSIDRange(t *testing.T) {
	s := buildStore(t, 100, 16, false) // keys 0,2,...,198; blocks of 16 rows
	// unbounded
	from, to := s.SIDRange(nil, nil)
	if from != 0 || to != 100 {
		t.Errorf("unbounded = [%d,%d)", from, to)
	}
	// key 40 is row 20, in block 1 (rows 16..31)
	from, to = s.SIDRange(types.Row{types.Int(40)}, types.Row{types.Int(40)})
	if from != 16 || to != 32 {
		t.Errorf("point range = [%d,%d), want [16,32)", from, to)
	}
	// range spanning blocks: keys 40..100 → rows 20..50 → blocks 1..3
	from, to = s.SIDRange(types.Row{types.Int(40)}, types.Row{types.Int(100)})
	if from != 16 || to != 64 {
		t.Errorf("span range = [%d,%d), want [16,64)", from, to)
	}
	// below all keys
	from, to = s.SIDRange(nil, types.Row{types.Int(-5)})
	if from != 0 || to != 0 {
		t.Errorf("below-all = [%d,%d), want empty", from, to)
	}
	// above all keys: lo greater than everything still lands in last block
	from, to = s.SIDRange(types.Row{types.Int(9999)}, nil)
	if from != 96 || to != 100 {
		t.Errorf("above-all lo = [%d,%d), want [96,100)", from, to)
	}
	// range must contain every matching row even between block boundaries
	for key := int64(0); key < 200; key += 2 {
		f, tt := s.SIDRange(types.Row{types.Int(key)}, types.Row{types.Int(key)})
		sid := uint64(key / 2)
		if sid < f || sid >= tt {
			t.Fatalf("key %d at sid %d outside range [%d,%d)", key, sid, f, tt)
		}
	}
}

func TestSIDRangeEmptyStore(t *testing.T) {
	b := NewBuilder(testSchema(), nil, 4, false)
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if from, to := s.SIDRange(nil, nil); from != 0 || to != 0 {
		t.Error("empty store should give empty range")
	}
}

func TestAddBatch(t *testing.T) {
	src := buildStore(t, 50, 8, false)
	all := scanAll(t, src, []int{0, 1, 2, 3}, 0, 50, 50)
	all.Rids = nil

	b := NewBuilder(testSchema(), nil, 8, true)
	if err := b.AddBatch(all); err != nil {
		t.Fatal(err)
	}
	s2, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if s2.NRows() != 50 {
		t.Fatalf("AddBatch store has %d rows", s2.NRows())
	}
	for sid := uint64(0); sid < 50; sid++ {
		a := rowAt(t, src, sid, []int{0, 1, 2, 3})
		c := rowAt(t, s2, sid, []int{0, 1, 2, 3})
		if types.CompareRows(a, c) != 0 {
			t.Fatalf("row %d differs: %v vs %v", sid, a, c)
		}
	}
}

func TestAddBatchRejectsOutOfOrder(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.String, types.Float64, types.Bool}
	bad := vector.NewBatch(kinds, 2)
	bad.AppendRow(types.Row{types.Int(10), types.Str("a"), types.Float(0), types.BoolVal(false)})
	b := NewBuilder(testSchema(), nil, 8, false)
	if err := b.AddBatch(bad); err != nil {
		t.Fatal(err)
	}
	bad2 := vector.NewBatch(kinds, 2)
	bad2.AppendRow(types.Row{types.Int(5), types.Str("b"), types.Float(0), types.BoolVal(false)})
	if err := b.AddBatch(bad2); err == nil {
		t.Error("out-of-order batch accepted")
	}
}

// TestScannerMidBlockStart checks the windowed decode: a scanner over any
// [from, to) — entering and leaving blocks mid-way, inside one block or across
// several — must produce exactly that slice of a full-range scan, for all
// column kinds, compressed or not.
func TestScannerMidBlockStart(t *testing.T) {
	const n, blockRows = 100, 16
	for _, compressed := range []bool{false, true} {
		s := buildStore(t, n, blockRows, compressed)
		cols := []int{0, 1, 2, 3}
		full := scanAll(t, s, cols, 0, uint64(n), 7)
		for from := uint64(0); from < uint64(n); from += 3 {
			for _, to := range []uint64{from, from + 1, from + 5, from + 16, from + 40, uint64(n), uint64(n) + 9} {
				got := scanAll(t, s, cols, from, to, 7)
				want := int(min(to, uint64(n)) - from)
				if got.Len() != want {
					t.Fatalf("compressed=%v [%d,%d): got %d rows, want %d", compressed, from, to, got.Len(), want)
				}
				for i := 0; i < got.Len(); i++ {
					for c := range cols {
						a, b := got.Vecs[c].Get(i), full.Vecs[c].Get(i+int(from))
						if types.Compare(a, b) != 0 {
							t.Fatalf("compressed=%v [%d,%d) row %d col %d: %v != %v", compressed, from, to, i, c, a, b)
						}
					}
				}
			}
		}
	}
}

// TestScannerEveryCallSize reads scans that start and end mid-block with every
// call size from 1 to the scan's length. A call that reads the rest of its
// window in a block decodes straight into the batch; one that leaves rows of
// the block for a later call decodes into the window buffers and copies out.
// Every size must read what one call over the whole range reads, and what the
// rows were built from — as one run per call (Next), and as runs that skip
// every third row, the way a merge passes over deleted rows, so a call puts
// several pieces in a block.
func TestScannerEveryCallSize(t *testing.T) {
	const n, blockRows = 100, 16
	cols := []int{0, 1, 2, 3}
	kinds := []types.Kind{types.Int64, types.String, types.Float64, types.Bool}
	model := func(i uint64) types.Row {
		return types.Row{types.Int(int64(i * 2)), types.Str(fmt.Sprintf("s%04d", i)), types.Float(float64(i) / 2), types.BoolVal(i%3 == 0)}
	}
	skipped := func(gaps bool, i uint64) bool { return gaps && i%3 == 1 }
	// read scans [from, to) in calls of size rows each and returns what it
	// read, the rows it should have read, and the scanner.
	read := func(s *Store, from, to uint64, size int, gaps bool) (got *vector.Batch, want []types.Row, sc *Scanner) {
		got = vector.NewBatch(kinds, 1)
		sc = s.NewScanner(cols, from, to)
		chain := &vector.Chain{Outputs: len(cols)}
		var runs []vector.Run
		skip := 0
		for p := from; p < to; p += uint64(size) {
			runs = runs[:0]
			for i := p; i < min(p+uint64(size), to); i++ {
				switch {
				case skipped(gaps, i):
					skip++
				case len(runs) > 0 && skip == 0:
					runs[len(runs)-1].N++
				default:
					runs = append(runs, vector.Run{Skip: skip, N: 1, At: len(want)})
					skip = 0
				}
				if !skipped(gaps, i) {
					want = append(want, model(i))
				}
			}
			if len(runs) == 0 {
				continue
			}
			got.Extend(len(want) - got.Len())
			if err := sc.SelectRuns(got, runs, nil, chain, nil); err != nil {
				t.Fatal(err)
			}
		}
		return got, want, sc
	}
	buffered := func(sc *Scanner) bool { return sc.bufs[0] != nil }
	for _, compressed := range []bool{false, true} {
		s := buildStore(t, n, blockRows, compressed)
		for _, gaps := range []bool{false, true} {
			for _, r := range [][2]uint64{{3, 4}, {3, 13}, {5, 16}, {5, 40}, {17, 100}, {31, 97}, {0, 100}} {
				from, to := r[0], r[1]
				label := fmt.Sprintf("compressed=%v gaps=%v [%d,%d)", compressed, gaps, from, to)
				one, _, sc := read(s, from, to, int(to-from), gaps)
				if !gaps && buffered(sc) {
					t.Errorf("%s: a single call filled the window buffers", label)
				}
				for size := 1; size <= int(to-from); size++ {
					got, want, sc := read(s, from, to, size, gaps)
					if got.Len() != len(want) || one.Len() != len(want) {
						t.Fatalf("%s by %d: got %d rows, one call %d, want %d", label, size, got.Len(), one.Len(), len(want))
					}
					for i := range want {
						if row := got.Row(i); types.CompareRows(row, want[i]) != 0 || types.CompareRows(row, one.Row(i)) != 0 {
							t.Fatalf("%s by %d, row %d: %v, one call read %v, built %v", label, size, i, row, one.Row(i), want[i])
						}
					}
					if gaps {
						continue
					}
					// A call that ends inside a block buffers that block's window.
					ends := false
					for at := from + uint64(size); at < to; at += uint64(size) {
						ends = ends || at%blockRows != 0
					}
					if buffered(sc) != ends {
						t.Errorf("%s by %d: window buffers filled = %v, want %v", label, size, buffered(sc), ends)
					}
				}
			}
		}
	}
}

// TestScannerMidBlockByteAccounting checks that tail decode does not change
// what the device charges: the whole encoded block is still a single cold
// fetch of its full size.
func TestScannerMidBlockByteAccounting(t *testing.T) {
	const n, blockRows = 64, 16
	s := buildStore(t, n, blockRows, true)
	dev := s.Device()

	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, s, []int{0}, 3, 8, 4) // mid-block probe within block 0
	partialBytes, partialReads := dev.Stats()

	dev.DropCaches()
	dev.ResetStats()
	scanAll(t, s, []int{0}, 0, 16, 4) // whole block 0
	fullBytes, fullReads := dev.Stats()

	if partialBytes != fullBytes || partialReads != fullReads {
		t.Errorf("tail decode changed accounting: partial %d/%d, full %d/%d",
			partialBytes, partialReads, fullBytes, fullReads)
	}
}
