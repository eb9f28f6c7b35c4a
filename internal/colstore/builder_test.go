package colstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pdtstore/internal/compress"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// hashSchema has one column per encoder arm the builder can take: a dense
// sorted key (delta), a date-like column with long runs (RLE), a full-range
// int (plain), a low-cardinality and an all-distinct string (both dictionary;
// compressed=false makes them plain), a float and a bool.
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

// parentSegmentHashes are the SHA-256 of the segment files the commit before
// the overlapped flush and the decide-then-write encoders built from
// hashBatches(5000) at 512 rows per block, keyed by the compressed flag.
var parentSegmentHashes = map[bool]string{
	true:  "d9c7b3e1d63081b0c463a336a9a43d628d180e89794e514f70aaa49dc6d1e299",
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

// failWrites makes every AppendBlock from here on fail, the way a full disk
// would: it joins the block in flight (so the writer is the test's to touch)
// and aborts the segment writer behind the builder's back.
func failWrites(b *Builder) {
	b.join()
	b.segw.Abort()
}

// TestBackgroundFlushErrorSurfaces: a block that fails to append in the
// background is reported by a later AddBatch or by Finish — never dropped,
// even when the failing block is the last full one.
func TestBackgroundFlushErrorSurfaces(t *testing.T) {
	const blockRows = 512
	batches := hashBatches(5000)
	newBuilder := func(t *testing.T) *Builder {
		b, err := NewFileBuilder(hashSchema(), nil, blockRows, true, filepath.Join(t.TempDir(), "e.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Run("next-AddBatch", func(t *testing.T) {
		b := newBuilder(t)
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
	t.Run("Finish", func(t *testing.T) {
		b := newBuilder(t)
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
	before := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "a.seg")
	b, err := NewFileBuilder(hashSchema(), nil, 2048, true, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range hashBatches(5000) {
		if err := b.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if b.inflight == nil {
		t.Fatal("no block in flight after two full blocks")
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
}

// TestOverlappedBuildMatchesRowBuild: the same rows through AddBatch (blocks
// flushed in the background) and through Add on a RAM builder scan alike,
// and every column took the encoding hashSchema promises.
func TestOverlappedBuildMatchesRowBuild(t *testing.T) {
	schema := hashSchema()
	fileB, err := NewFileBuilder(schema, nil, 512, true, filepath.Join(t.TempDir(), "o.seg"))
	if err != nil {
		t.Fatal(err)
	}
	ramB := NewBuilder(schema, nil, 512, true)
	for _, batch := range hashBatches(5000) {
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
	want := []compress.Scheme{compress.DeltaVarint, compress.RLEInt, compress.PlainInt,
		compress.DictString, compress.DictString, compress.PlainFloat, compress.BitBool}
	for c, w := range want {
		enc, _ := ram.EncodedBlock(c, 0)
		if got := compress.BlockScheme(enc); got != w {
			t.Errorf("column %d encodes as scheme %d, want %d", c, got, w)
		}
	}
}
