package colstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// pointRead reads row sid of column col through a one-row scanner, as a key
// probe does, and returns the charge it cost.
func pointRead(t *testing.T, s *Store, col int, sid uint64) (types.Value, uint64, uint64) {
	t.Helper()
	b0, r0 := s.dev.Stats()
	out := vector.NewBatch([]types.Kind{s.schema.Cols[col].Kind}, 1)
	if n, err := s.NewScanner([]int{col}, sid, sid+1).Next(out, 1); err != nil || n != 1 {
		t.Fatalf("point read of row %d: %d rows, %v", sid, n, err)
	}
	b1, r1 := s.dev.Stats()
	return out.Vecs[0].Get(0), b1 - b0, r1 - r0
}

// TestPointReadPoolContract: for a file-backed store with 4096-row blocks, a
// cold point read of a block several pages long charges only the pages its
// row lies in and pools nothing; the second since DropCaches reads the block
// whole into the pool, and the third costs nothing. DropCaches and Evict
// forget the first read; a scan pools whole blocks, and a point read after it
// costs nothing.
func TestPointReadPoolContract(t *testing.T) {
	const blockRows = 4096
	dev := NewDevice()
	s := buildFileStore(t, dev, 3*blockRows, blockRows, true, filepath.Join(t.TempDir(), "p.seg"))
	defer s.Close()
	const col, blk = 1, 1 // s: "s%04d" strings, a block of several pages
	si, pb := s.place(col, blk)
	seg := s.segs[si]
	np, whole := seg.Pages(col, pb), uint64(seg.BlockLen(col, pb))
	if np < 3 {
		t.Fatalf("column %d block %d: %d pages, want a block of several", col, blk, np)
	}
	sid := func(r int) uint64 { return uint64(blk*blockRows + r) }
	want := func(r int) string { return fmt.Sprintf("s%04d", blk*blockRows+r) }
	read := func(r int) (uint64, uint64) {
		t.Helper()
		v, bytes, reads := pointRead(t, s, col, sid(r))
		if v.S != want(r) {
			t.Fatalf("row %d: %q, want %q", sid(r), v.S, want(r))
		}
		return bytes, reads
	}
	firstTouch := func(r int) {
		t.Helper()
		pool := dev.PoolBlocks()
		bytes, reads := read(r)
		if bytes == 0 || bytes > 2*4096 || reads == 0 || reads > 2 {
			t.Fatalf("first point read of row %d: %d bytes in %d reads, want its pages (≤ 2 of %d, block %d bytes)", r, bytes, reads, np, whole)
		}
		if dev.PoolBlocks() != pool {
			t.Fatalf("first point read pooled a block: %d → %d", pool, dev.PoolBlocks())
		}
	}
	secondTouch := func(r int) {
		t.Helper()
		pool := dev.PoolBlocks()
		if bytes, reads := read(r); bytes != whole || reads != 1 {
			t.Fatalf("second point read of row %d: %d bytes in %d reads, want the whole block (%d) in 1", r, bytes, reads, whole)
		}
		if dev.PoolBlocks() != pool+1 {
			t.Fatalf("second point read left %d pool blocks, want %d", dev.PoolBlocks(), pool+1)
		}
		if bytes, reads := read(r + 1); bytes != 0 || reads != 0 {
			t.Fatalf("third point read: %d bytes in %d reads, want none", bytes, reads)
		}
	}
	firstTouch(3000)
	secondTouch(17)
	dev.DropCaches()
	firstTouch(2048)
	secondTouch(2048)
	dev.DropCaches()
	firstTouch(5)
	s.Evict()
	firstTouch(4000)
	secondTouch(4000)

	dev.DropCaches()
	scanAllRows(t, s)
	if got := dev.PoolBlocks(); got != 4*3 {
		t.Fatalf("a scan pooled %d blocks, want every one (12)", got)
	}
	if bytes, reads := read(1234); bytes != 0 || reads != 0 {
		t.Fatalf("point read after a scan: %d bytes in %d reads, want none", bytes, reads)
	}
}

// TestColdScanStaysOutOfThePlan: a cold full scan of a paged file store
// reads every block whole into the pool, one read per block — no scan window
// is a point read — and a point read after it costs nothing.
func TestColdScanStaysOutOfThePlan(t *testing.T) {
	const blockRows = 4096
	dev := NewDevice()
	s := buildFileStore(t, dev, 3*blockRows, blockRows, true, filepath.Join(t.TempDir(), "p.seg"))
	defer s.Close()
	dev.DropCaches()
	dev.ResetStats()
	scanAllRows(t, s)
	var whole uint64
	for c := range s.schema.Cols {
		for blk := 0; blk < s.NumBlocks(); blk++ {
			si, pb := s.place(c, blk)
			whole += uint64(s.segs[si].BlockLen(c, pb))
		}
	}
	blocks := len(s.schema.Cols) * s.NumBlocks()
	if bytes, reads := dev.Stats(); reads != uint64(blocks) || bytes != whole || dev.PoolBlocks() != blocks {
		t.Fatalf("a cold scan read %d bytes in %d reads and pooled %d blocks; want the %d blocks' %d bytes, one read each, all pooled", bytes, reads, dev.PoolBlocks(), blocks, whole)
	}
	if _, bytes, reads := pointRead(t, s, 1, 5000); bytes != 0 || reads != 0 {
		t.Fatalf("point read after a cold scan: %d bytes in %d reads, want none", bytes, reads)
	}
}
