package colstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pdtstore/internal/compress"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// hashSchema has one column per encoder arm the builder can take: a dense
// sorted key (ForInt, width 0 on its line), a date-like column with long runs
// (RLE), a full-range int (plain), a low-cardinality string (packed
// dictionary) and an all-distinct one (framed offsets: codes would cost more
// than the bytes they save; compressed=false makes every column plain), a
// float of hundredths (ScaledFloat) and a bool.
func hashSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "d", Kind: types.Date},
		{Name: "r", Kind: types.Int64},
		{Name: "flag", Kind: types.String},
		{Name: "note", Kind: types.String},
		{Name: "f", Kind: types.Float64},
		{Name: "b", Kind: types.Bool},
	}, []int{0})
}

// hashBatches generates the fixed input of TestSegmentHashMatchesParent: n
// rows cut into batches of uneven length, so AddBatch crosses block
// boundaries mid-batch.
func hashBatches(n int) []*vector.Batch {
	schema := hashSchema()
	kinds := make([]types.Kind, schema.NumCols())
	for i, c := range schema.Cols {
		kinds[i] = c.Kind
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift64: the same sequence on every toolchain
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	flags := []string{"A", "N", "R", ""}
	var out []*vector.Batch
	for i := 0; i < n; {
		take := min(n-i, 1+int(next()%900))
		b := vector.NewBatch(kinds, take)
		for ; take > 0; take, i = take-1, i+1 {
			b.AppendRow(types.Row{
				types.Int(int64(i)*3 - 1000),
				types.DateVal(int64(9000 + i/700)),
				types.Int(int64(next())),
				types.Str(flags[next()%4]),
				types.Str(fmt.Sprintf("note-%d-%x", i, next()%(1<<20))),
				types.Float(float64(int64(next()%100000)-50000) / 100),
				types.BoolVal(next()%3 == 0),
			})
		}
		out = append(out, b)
	}
	return out
}

// parentSegmentHashes are the SHA-256 of the segment files built from
// hashBatches(5000) at 512 rows per block, keyed by the compressed flag. The
// uncompressed file is the one the commit before the overlapped flush and the
// decide-then-write encoders built. The compressed one was re-recorded when
// ForInt and the packed dictionary replaced delta-varint and varint-code
// dictionary blocks (a format change: the parent wrote d9c7b3e1…e299), and
// again when column f, hundredths, began to encode as ScaledFloat instead of
// PlainFloat (the parent wrote 43755648…c429), and again when column note,
// all-distinct, began to store its offsets as FramedString instead of
// PlainString (the parent wrote 991ffc85…78ac).
var parentSegmentHashes = map[bool]string{
	true:  "364b59b32d74ec2367e7ce0a3335d74b5fe18c36853be92f846c307fd652a815",
	false: "5c978edf539546af7636640e177dcd5cc6b86152aa5a0f104a0fe7267981d147",
}

// TestSegmentHashMatchesParent: neither the encoders nor the builder's flush
// may change a byte of the file a fixed input produces.
func TestSegmentHashMatchesParent(t *testing.T) {
	for _, compressed := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "h.seg")
		b, err := NewFileBuilder(hashSchema(), nil, 512, compressed, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range hashBatches(5000) {
			if err := b.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		s, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != parentSegmentHashes[compressed] {
			t.Errorf("compressed=%v: segment SHA-256 %s, parent built %s", compressed, got, parentSegmentHashes[compressed])
		}
	}
}

// TestDictZoneMatchesRows: a PackedDict block's zone, taken over its
// dictionary's entries, is the zone zoneOf computes over its rows — with the
// empty string as the minimum, and with a minimum and a maximum longer than
// the zone's cap (cut, the maximum flagged MaxSTrunc).
func TestDictZoneMatchesRows(t *testing.T) {
	long := strings.Repeat("z", zoneMaxStr+6)
	values := [][]string{
		{"m", "", "b", long + "a", "m", "b"},
		{long + "c", long + "a", long + "b"},
		{"b", "a", "c", "a"},
	}
	schema := types.MustSchema([]types.Column{{Name: "k", Kind: types.Int64}, {Name: "s", Kind: types.String}}, []int{0})
	const blockRows = 256
	b := NewBuilder(schema, nil, blockRows, true)
	for blk, vals := range values {
		for i := range blockRows {
			if err := b.Add(types.Row{types.Int(int64(blk*blockRows + i)), types.Str(vals[i*7%len(vals)])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for blk := range values {
		enc, err := s.EncodedBlock(1, blk)
		if err != nil {
			t.Fatal(err)
		}
		if got := compress.BlockScheme(enc); got != compress.PackedDict {
			t.Fatalf("block %d: scheme %d, want the packed dictionary", blk, got)
		}
		rows, err := compress.DecodeStrings(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := s.Zone(1, blk)
		if want := zoneOf(&vector.Vector{Kind: types.String, S: rows}); got != want {
			t.Errorf("block %d: zone %+v, its rows give %+v", blk, got, want)
		}
	}
}

// failWrites makes every AppendBlock from here on fail, the way a full disk
// would: it joins the block in flight (so the writer is the test's to touch)
// and aborts the segment writer behind the builder's back.
func failWrites(b *Builder) {
	b.join()
	b.segw.Abort()
}

// buildInput is one way to start a build into path (a memory segment when it
// is empty), and the batches to feed it.
type buildInput struct {
	name    string
	start   func(t *testing.T, blockRows int, path string) *Builder
	batches func(blockRows int) []*vector.Batch
}

// inheritBlocks is how many leading blocks the with-base input inherits.
const inheritBlocks = 2

// buildInputs are the shapes every build takes: a flat build fed
// hashBatches(5000) from row 0, and a checkpoint build over a base holding
// those rows — in a file, or in memory — that inherits the first
// inheritBlocks blocks and is fed the rest.
var buildInputs = []buildInput{
	{"flat", startFlat, func(int) []*vector.Batch { return hashBatches(5000) }},
	{"with-base", startWithBase(true), tailBatches},
	{"with-memory-base", startWithBase(false), tailBatches},
}

func tailBatches(blockRows int) []*vector.Batch {
	return skipRows(hashBatches(5000), inheritBlocks*blockRows)
}

func startFlat(t *testing.T, blockRows int, path string) *Builder {
	b, err := NewFileBuilder(hashSchema(), nil, blockRows, true, path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startWithBase(baseInFile bool) func(t *testing.T, blockRows int, path string) *Builder {
	return func(t *testing.T, blockRows int, path string) *Builder {
		basePath := ""
		if baseInFile {
			basePath = filepath.Join(t.TempDir(), "base.seg")
		}
		base := startFlat(t, blockRows, basePath)
		for _, batch := range hashBatches(5000) {
			if err := base.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		st, err := base.Finish()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		b, err := NewCheckpointBuilder(st, inheritBlocks, 0, false, path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// skipRows drops the first n rows of a batch sequence.
func skipRows(batches []*vector.Batch, n int) []*vector.Batch {
	var out []*vector.Batch
	for _, batch := range batches {
		if skip := min(n, batch.Len()); skip < batch.Len() {
			rest := vector.NewBatch(batch.Kinds(), batch.Len()-skip)
			for c, v := range rest.Vecs {
				v.AppendRange(batch.Vecs[c], skip, batch.Len())
			}
			out = append(out, rest)
		}
		n -= min(n, batch.Len())
	}
	return out
}

// TestBackgroundFlushErrorSurfaces: a block that fails to append in the
// background is reported by a later AddBatch or by Finish — never dropped,
// even when the failing block is the last full one.
func TestBackgroundFlushErrorSurfaces(t *testing.T) {
	const blockRows = 512
	// each runs one scenario on both build shapes.
	each := func(name string, run func(t *testing.T, b *Builder, batches []*vector.Batch)) {
		t.Run(name, func(t *testing.T) {
			for _, in := range buildInputs {
				t.Run(in.name, func(t *testing.T) {
					run(t, in.start(t, blockRows, filepath.Join(t.TempDir(), "e.seg")), in.batches(blockRows))
				})
			}
		})
	}
	each("next-AddBatch", func(t *testing.T, b *Builder, batches []*vector.Batch) {
		// The first block handed over after the injection fails in the
		// background; the hand-over after that one joins it. So the error
		// belongs to the batch that completes the second block from there.
		const injectAt = 3
		rows, failAfterRows := 0, 0
		for i, batch := range batches {
			if i == injectAt {
				failWrites(b)
				failAfterRows = (rows/blockRows + 2) * blockRows
			}
			rows += batch.Len()
			err := b.AddBatch(batch)
			if want := i >= injectAt && rows >= failAfterRows; (err != nil) != want {
				t.Fatalf("batch %d (%d rows in): AddBatch error %v, want an error: %v", i, rows, err, want)
			}
			if err != nil {
				break
			}
		}
		if err := b.AddBatch(batches[0]); err == nil {
			t.Fatal("AddBatch succeeded on a failed builder")
		}
		if s, err := b.Finish(); err == nil || s != nil {
			t.Fatalf("Finish on a failed builder returned (%v, %v)", s, err)
		}
	})
	each("Finish", func(t *testing.T, b *Builder, batches []*vector.Batch) {
		failWrites(b)
		// One block and a bit: the only full block is in flight (or failed
		// unobserved) when Finish is called.
		one := vector.NewBatch(batches[0].Kinds(), blockRows+10)
		for _, batch := range batches {
			for c, v := range one.Vecs {
				v.AppendRange(batch.Vecs[c], 0, min(batch.Len(), blockRows+10-v.Len()))
			}
		}
		if err := b.AddBatch(one); err != nil {
			t.Fatalf("AddBatch joined nothing yet, got %v", err)
		}
		if b.inflight == nil {
			t.Fatal("no block in flight after a full block")
		}
		if s, err := b.Finish(); err == nil || s != nil {
			t.Fatalf("Finish lost the background error: (%v, %v)", s, err)
		}
	})
}

// TestAbortJoinsInFlightBlock: Abort with a block in flight waits for it,
// removes the partial file and leaves no goroutine behind.
func TestAbortJoinsInFlightBlock(t *testing.T) {
	for _, in := range buildInputs {
		t.Run(in.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.seg")
			b := in.start(t, 1024, path)
			before := runtime.NumGoroutine()
			for _, batch := range in.batches(1024) {
				if err := b.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			if b.inflight == nil {
				t.Fatal("no block in flight after the last full block")
			}
			b.Abort()
			if b.inflight != nil {
				t.Fatal("Abort returned with a block still in flight")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("partial segment survives Abort: %v", err)
			}
			if _, err := b.Finish(); err == nil {
				t.Fatal("Finish after Abort must fail")
			}
			// The flush goroutine's last act is the send Abort received; give the
			// scheduler a moment to retire it.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the build", runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		})
	}
}

// TestCheckpointBuilderOrderCheck: the tail of a with-base build is held to
// the order check of any other build — each block's first row against the
// last row written, not against the previous block's first key. A block that
// starts inside the previous block's key range is rejected.
func TestCheckpointBuilderOrderCheck(t *testing.T) {
	const blockRows = 512
	in := buildInputs[1]
	b := in.start(t, blockRows, filepath.Join(t.TempDir(), "o.seg"))
	defer b.Abort()
	var block *vector.Batch // exactly the first tail block
	for _, batch := range in.batches(blockRows) {
		if block == nil {
			block = vector.NewBatch(batch.Kinds(), blockRows)
		}
		for c, v := range block.Vecs {
			v.AppendRange(batch.Vecs[c], 0, min(batch.Len(), blockRows-v.Len()))
		}
	}
	if err := b.AddBatch(block); err != nil {
		t.Fatal(err)
	}
	// Rows 100.. of that block again: above its first key, below its last.
	overlap := vector.NewBatch(block.Kinds(), 10)
	for c, v := range overlap.Vecs {
		v.AppendRange(block.Vecs[c], 100, 110)
	}
	if first, last := block.Row(0)[0].I, block.Row(blockRows - 1)[0].I; overlap.Row(0)[0].I <= first || overlap.Row(0)[0].I >= last {
		t.Fatalf("setup: key %d is not inside (%d, %d)", overlap.Row(0)[0].I, first, last)
	}
	if err := b.AddBatch(overlap); err == nil {
		t.Fatal("a tail block starting inside the previous block's key range was accepted")
	}
}

// TestCheckpointBuilderChain: inherited blocks resolve into the base's
// segment, rewritten and tail blocks into the new one, and the image reads
// like the flat build of the same rows; a build that ends up referencing no
// base member is that flat build, byte for byte — no block map. Wherever the
// base's bytes and the new segment's live, file or memory.
func TestCheckpointBuilderChain(t *testing.T) {
	const blockRows = 512
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "flat.seg")
	flatB := startFlat(t, blockRows, flatPath)
	for _, batch := range hashBatches(5000) {
		if err := flatB.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := flatB.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	for _, in := range buildInputs[1:] {
		for _, outInFile := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/out-in-file=%v", in.name, outInFile), func(t *testing.T) {
				testCheckpointBuilderChain(t, in, blockRows, flat, flatPath, outInFile)
			})
		}
	}
}

func testCheckpointBuilderChain(t *testing.T, in buildInput, blockRows int, flat *Store, flatPath string, outInFile bool) {
	dir := t.TempDir()
	out := func(name string) string {
		if !outInFile {
			return ""
		}
		return filepath.Join(dir, name)
	}
	ncols := flat.Schema().NumCols()
	all := make([]int, ncols)
	for c := range all {
		all[c] = c
	}
	// rewrite re-encodes block blk of the given columns from the flat image.
	rewrite := func(b *Builder, blk int, cols ...int) {
		t.Helper()
		buf := vector.NewBatch(hashBatches(1)[0].Kinds(), blockRows)
		if _, err := flat.NewScanner(all, uint64(blk*blockRows), uint64((blk+1)*blockRows)).Next(buf, blockRows); err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			if err := b.WriteBlock(c, blk, buf.Vecs[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed := func(b *Builder) *Store {
		t.Helper()
		for _, batch := range in.batches(blockRows) {
			if err := b.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	// sameAsFlat holds an image to the flat build's, block by block.
	sameAsFlat := func(st *Store) {
		t.Helper()
		if st.NRows() != flat.NRows() || st.NumBlocks() != flat.NumBlocks() {
			t.Fatalf("image: %d rows in %d blocks, flat: %d in %d", st.NRows(), st.NumBlocks(), flat.NRows(), flat.NumBlocks())
		}
		for c := 0; c < ncols; c++ {
			for blk := 0; blk < flat.NumBlocks(); blk++ {
				ce, err := st.EncodedBlock(c, blk)
				if err != nil {
					t.Fatal(err)
				}
				fe, _ := flat.EncodedBlock(c, blk)
				cz, _ := st.Zone(c, blk)
				fz, _ := flat.Zone(c, blk)
				if !bytes.Equal(ce, fe) || cz != fz {
					t.Fatalf("column %d block %d differs from the flat image", c, blk)
				}
			}
		}
	}

	b := in.start(t, blockRows, out("rejected.seg"))
	if err := b.WriteBlock(0, inheritBlocks, nil); err == nil {
		t.Fatal("WriteBlock past the shift block was accepted")
	}
	b.Abort()

	b = in.start(t, blockRows, out("chained.seg"))
	rewrite(b, 1, 2, 5)
	chained := feed(b)
	if got := len(chained.Segments()); got != 2 {
		t.Fatalf("chain has %d members, want 2", got)
	}
	if refs, want := chained.BlockRefCounts(), inheritBlocks*ncols-2; refs[0] != want || refs[1] != chained.NumBlocks()*ncols-want {
		t.Fatalf("block references %v, want %d into the base", refs, want)
	}
	sameAsFlat(chained)

	b = in.start(t, blockRows, out("collapsed.seg"))
	for blk := 0; blk < inheritBlocks; blk++ {
		rewrite(b, blk, all...)
	}
	collapsed := feed(b)
	if got := len(collapsed.Segments()); got != 1 || collapsed.Segment().Placements() != nil {
		t.Fatalf("every block rewritten: %d chain members, block map %v; want one flat segment", got, collapsed.Segment().Placements() != nil)
	}
	sameAsFlat(collapsed)
	if outInFile {
		want, _ := os.ReadFile(flatPath)
		got, _ := os.ReadFile(out("collapsed.seg"))
		if !bytes.Equal(got, want) {
			t.Fatal("a build that inherits nothing in the end differs from the flat build's file")
		}
	}
}

// TestOverlappedBuildMatchesRowBuild: the same rows through AddBatch (blocks
// flushed in the background) and through Add on a RAM builder scan alike,
// and every column took the encoding hashSchema promises — f, hundredths, as
// ScaledFloat — and a float column of thirds, which no digit count holds,
// stayed PlainFloat.
func TestOverlappedBuildMatchesRowBuild(t *testing.T) {
	schema := types.MustSchema(append(hashSchema().Cols, types.Column{Name: "thirds", Kind: types.Float64}), []int{0})
	batches := hashBatches(5000)
	row := 0
	for _, b := range batches {
		thirds := vector.New(types.Float64, b.Len())
		for i := 0; i < b.Len(); i, row = i+1, row+1 {
			thirds.F = append(thirds.F, float64(row)/3)
		}
		b.Vecs = append(b.Vecs, thirds)
	}
	fileB, err := NewFileBuilder(schema, nil, 512, true, filepath.Join(t.TempDir(), "o.seg"))
	if err != nil {
		t.Fatal(err)
	}
	ramB := NewBuilder(schema, nil, 512, true)
	for _, batch := range batches {
		if err := fileB.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch.Len(); i++ {
			if err := ramB.Add(batch.Row(i).Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	file, err := fileB.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	ram, err := ramB.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if file.NRows() != 5000 || ram.NRows() != 5000 || file.NumBlocks() != ram.NumBlocks() {
		t.Fatalf("file: %d rows in %d blocks, ram: %d rows in %d blocks", file.NRows(), file.NumBlocks(), ram.NRows(), ram.NumBlocks())
	}
	for c := 0; c < schema.NumCols(); c++ {
		for blk := 0; blk < file.NumBlocks(); blk++ {
			fe, err := file.EncodedBlock(c, blk)
			if err != nil {
				t.Fatal(err)
			}
			re, _ := ram.EncodedBlock(c, blk)
			if !bytes.Equal(fe, re) {
				t.Fatalf("column %d block %d differs between the two builds", c, blk)
			}
			fz, _ := file.Zone(c, blk)
			rz, _ := ram.Zone(c, blk)
			if fz != rz {
				t.Fatalf("column %d block %d zone %+v vs %+v", c, blk, fz, rz)
			}
		}
	}
	want := []compress.Scheme{compress.ForInt, compress.RLEInt, compress.PlainInt,
		compress.PackedDict, compress.FramedString, compress.ScaledFloat, compress.BitBool, compress.PlainFloat}
	for c, w := range want {
		enc, _ := ram.EncodedBlock(c, 0)
		if got := compress.BlockScheme(enc); got != w {
			t.Errorf("column %d encodes as scheme %d, want %d", c, got, w)
		}
	}
}
