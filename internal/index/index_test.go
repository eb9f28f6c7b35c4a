package index

// Unit tests for the secondary-index summaries: exact-set and Bloom arm
// selection, the decode-free dictionary/RLE fast paths, probe semantics
// (one-sided error only), incremental Rebuild reuse, and the Float64 and
// block-count rejections.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/compress"
	"pdtstore/internal/engine"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

var idxSchema = types.MustSchema([]types.Column{
	{Name: "k", Kind: types.Int64},
	{Name: "cat", Kind: types.String}, // low cardinality → dictionary + exact arm
	{Name: "id", Kind: types.Int64},   // high cardinality → Bloom arm
	{Name: "run", Kind: types.Int64},  // long runs → RLE fast path
	{Name: "f", Kind: types.Bool},
}, []int{0})

// buildStore loads n rows compressed (so dictionary and RLE encodings kick
// in) and returns the stable store.
func buildStore(t *testing.T, n, blockRows int) *colstore.Store {
	t.Helper()
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("cat%d", i%4)),
			types.Int(int64(i)*7919 + 13), // scattered, all distinct
			types.Int(int64(i / blockRows)),
			types.BoolVal(i%2 == 0),
		}
	}
	tbl, err := table.Load(idxSchema, rows, table.Options{Mode: table.ModeNone, BlockRows: blockRows, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Store()
}

func TestBuildArmsAndProbes(t *testing.T) {
	st := buildStore(t, 2048, 512) // 4 blocks; 512 distinct ids per block > maxExact
	s, err := Build(st, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Cols(); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("Cols() = %v", got)
	}
	// cat: 4 distinct strings per block → exact arm, answers everything.
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrEq, Strs: []string{"cat2"}}, 0); sk || !ix {
		t.Fatalf("cat2 probe on block 0 = (%v,%v), want present", sk, ix)
	}
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrEq, Strs: []string{"cat9"}}, 0); !sk || !ix {
		t.Fatalf("cat9 probe = (%v,%v), want certain skip", sk, ix)
	}
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrPrefix, Strs: []string{"ca"}}, 0); sk || !ix {
		t.Fatalf("prefix ca = (%v,%v), want present", sk, ix)
	}
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrPrefix, Strs: []string{"dog"}}, 0); !sk || !ix {
		t.Fatalf("prefix dog = (%v,%v), want skip", sk, ix)
	}
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrIn, Strs: []string{"cat9", "cat1"}}, 0); sk || !ix {
		t.Fatalf("in {cat9,cat1} = (%v,%v), want present", sk, ix)
	}
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrIn, Strs: []string{"x", "y"}}, 0); !sk || !ix {
		t.Fatalf("in {x,y} = (%v,%v), want skip", sk, ix)
	}

	// id: > maxExact distinct per block → Bloom arm. Every present value must
	// answer "maybe" (no false negatives, ever); ranges are unanswerable.
	for i := 0; i < 2048; i += 97 {
		v := int64(i)*7919 + 13
		blk := i / 512
		if sk, ix := s.CanSkip(engine.Pred{Col: 2, Op: engine.PredInt64Range, ILo: v, IHi: v, Eq: true}, blk); sk || !ix {
			t.Fatalf("bloom false negative for id %d in block %d", v, blk)
		}
	}
	if _, ix := s.CanSkip(engine.Pred{Col: 2, Op: engine.PredInt64Range, ILo: 0, IHi: 1 << 40}, 0); ix {
		t.Fatal("bloom arm claimed to answer a non-equality range")
	}
	// Absent probes must skip most blocks (~2% false positives).
	skips := 0
	for i := 0; i < 400; i++ {
		if sk, _ := s.CanSkip(engine.Pred{Col: 2, Op: engine.PredInt64Range, ILo: int64(-9000 - i), IHi: int64(-9000 - i), Eq: true}, i%4); sk {
			skips++
		}
	}
	if skips < 360 {
		t.Fatalf("bloom skipped only %d/400 absent probes", skips)
	}

	// run: RLE fast path yields exact run values; block b holds only value b.
	for b := 0; b < 4; b++ {
		if sk, ix := s.CanSkip(engine.Pred{Col: 3, Op: engine.PredInt64Range, ILo: int64(b), IHi: int64(b), Eq: true}, b); sk || !ix {
			t.Fatalf("run value %d missing from its own block", b)
		}
		if sk, ix := s.CanSkip(engine.Pred{Col: 3, Op: engine.PredInt64Range, ILo: 99, IHi: 200}, b); !sk || !ix {
			t.Fatalf("run range [99,200] not skipped in block %d: (%v,%v)", b, sk, ix)
		}
		// Exact arms answer true ranges, not just equality.
		if sk, ix := s.CanSkip(engine.Pred{Col: 3, Op: engine.PredInt64Range, ILo: int64(b) - 1, IHi: int64(b)}, b); sk || !ix {
			t.Fatalf("overlapping range skipped in block %d", b)
		}
	}

	// Unindexed column and out-of-range block: decline, never skip.
	if sk, ix := s.CanSkip(engine.Pred{Col: 0, Op: engine.PredInt64Range, ILo: 1, IHi: 1}, 0); sk || ix {
		t.Fatal("probe on an unindexed column did not decline")
	}
	if sk, ix := s.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrEq, Strs: []string{"cat0"}}, 99); sk || ix {
		t.Fatal("probe on an out-of-range block did not decline")
	}
}

func TestBuildRejectsFloat(t *testing.T) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "x", Kind: types.Float64},
	}, []int{0})
	tbl, err := table.Load(schema, []types.Row{{types.Int(1), types.Float(1.5)}}, table.Options{Mode: table.ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(tbl.Store(), []int{1}); err == nil {
		t.Fatal("Build accepted a Float64 column")
	}
	if _, err := Build(tbl.Store(), []int{5}); err == nil {
		t.Fatal("Build accepted an out-of-range column")
	}
}

func TestRebuildReusesCleanSummaries(t *testing.T) {
	st := buildStore(t, 1024, 256) // 4 blocks
	s, err := Build(st, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild over the same store with only block 2 dirty: clean summaries
	// must be reused by reference, the dirty one rebuilt.
	var asked []string
	next, err := s.Rebuild(st, st.NumBlocks(), func(col, blk int) bool {
		asked = append(asked, fmt.Sprintf("%d/%d", col, blk))
		return blk == 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) == 0 {
		t.Fatal("dirty callback never consulted")
	}
	for _, c := range []int{1, 2} {
		for b := 0; b < 4; b++ {
			oldSum, newSum := &s.cols[c][b], &next.cols[c][b]
			shared := len(oldSum.ints) > 0 && len(newSum.ints) > 0 && &oldSum.ints[0] == &newSum.ints[0] ||
				len(oldSum.strs) > 0 && len(newSum.strs) > 0 && &oldSum.strs[0] == &newSum.strs[0] ||
				len(oldSum.bits) > 0 && len(newSum.bits) > 0 && &oldSum.bits[0] == &newSum.bits[0]
			if b != 2 && !shared {
				t.Errorf("clean summary %d/%d was rebuilt, not reused", c, b)
			}
		}
	}
	// A grown image (more blocks than the old set) must fill the tail.
	grown := buildStore(t, 1280, 256) // 5 blocks
	next, err = s.Rebuild(grown, grown.NumBlocks(), func(col, blk int) bool { return blk >= 4 })
	if err != nil {
		t.Fatal(err)
	}
	if sk, ix := next.CanSkip(engine.Pred{Col: 1, Op: engine.PredStrEq, Strs: []string{"cat1"}}, 4); sk || !ix {
		t.Fatalf("grown-tail block summary missing: (%v,%v)", sk, ix)
	}
}

// TestBuildRejectsBlockCountMismatch: a block whose header claims more values
// than the image gives it — here a 22-byte width-0 ForInt frame claiming
// 2^32-1, which decodes to that many values by the format's own rules — is
// ErrCorrupt before any summary decodes it.
func TestBuildRejectsBlockCountMismatch(t *testing.T) {
	schema := types.MustSchema([]types.Column{{Name: "k", Kind: types.Int64}}, []int{0})
	w, err := storage.CreateSegment("", schema, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{byte(compress.ForInt), 0xff, 0xff, 0xff, 0xff}
	frame = binary.LittleEndian.AppendUint64(frame, 0)     // base
	frame = binary.LittleEndian.AppendUint64(frame, 1<<32) // slope 1: every value distinct
	frame = append(frame, 0)                               // width
	if err := w.AppendBlock(0, frame, storage.Zone{}); err != nil {
		t.Fatal(err)
	}
	seg, err := w.Finish(4, []types.Row{{types.Int(0)}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := colstore.FromSegmentChain([]*storage.Segment{seg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(st, []int{0}); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("Build over a block claiming 2^32-1 of its 4 rows: %v, want ErrCorrupt", err)
	}
}
