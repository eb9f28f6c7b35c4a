package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pdtstore/internal/types"
)

// pageLens are block lengths around the page boundaries: none, one and
// several pages, full and partial last pages.
var pageLens = []int{0, 1, pageSize - 1, pageSize, pageSize + 1, 2 * pageSize, 2*pageSize + 7, 5*pageSize + 123}

// buildPaged writes one block of each of pageLens per column, in column
// interleaving as a builder emits them, and returns the segment and blocks.
func buildPaged(t testing.TB, path string) (*Segment, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	w, err := CreateSegment(path, testSchema(t), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for _, n := range pageLens {
		for col := 0; col < 3; col++ {
			b := make([]byte, n+col)
			rng.Read(b)
			blocks = append(blocks, b)
			if err := w.AppendBlock(col, b, Zone{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sparse := make([]types.Row, len(pageLens))
	for i := range sparse {
		sparse[i] = types.Row{types.Int(int64(10 * i))}
	}
	seg, err := w.Finish(uint64(4*len(pageLens)), sparse)
	if err != nil {
		t.Fatal(err)
	}
	return seg, blocks
}

// TestPageChecksums: every block keeps its whole CRC (a reader without page
// checksums still verifies it), a block longer than a page has one checksum
// per page, and ReadUnits reads exactly the pages covering a byte range —
// in a file written and reopened, and in memory.
func TestPageChecksums(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paged.seg")
	written, blocks := buildPaged(t, path)
	mem, _ := buildPaged(t, "")
	written.Close()
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for _, s := range []*Segment{seg, mem} {
		for i, want := range blocks {
			blk, col := i/3, i%3
			if e := s.index[col][blk]; e.CRC != crc32.ChecksumIEEE(want) {
				t.Fatalf("block (%d, %d) of %d bytes: CRC %08x, want the whole block's %08x", col, blk, len(want), e.CRC, crc32.ChecksumIEEE(want))
			}
			got, err := s.ReadBlock(col, blk)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadBlock(%d, %d) = %v", col, blk, err)
			}
			np := pageCount(uint32(len(want)))
			if s == mem {
				if s.Pages(col, blk) != 0 {
					t.Fatalf("memory block (%d, %d) reports %d pages", col, blk, s.Pages(col, blk))
				}
			} else if s.Pages(col, blk) != np {
				t.Fatalf("block (%d, %d) of %d bytes: %d pages, want %d", col, blk, len(want), s.Pages(col, blk), np)
			}
			if np == 0 {
				continue
			}
			for _, r := range [][2]int{{0, 1}, {pageSize - 1, pageSize + 1}, {pageSize, pageSize + 1}, {len(want) - 1, len(want)}, {0, len(want)}} {
				a, b := PageCover(r[0], r[1])
				b = min(b, len(want))
				buf := bytes.Repeat([]byte{0xA5}, b-a)
				if err := s.ReadUnits(buf, []Unit{{col, blk, a, b}}); err != nil || !bytes.Equal(buf, want[a:b]) {
					t.Fatalf("ReadUnits(%d, %d, [%d, %d)) = %v, or the wrong bytes", col, blk, a, b, err)
				}
			}
		}
	}
}

func allA5(b []byte) bool {
	for _, c := range b {
		if c != 0xA5 {
			return false
		}
	}
	return true
}

// TestPageCorruptionIsErrChecksum flips one bit in each page of a paged
// block in turn: the whole read and the read of that page fail with
// ErrChecksum naming it, and the other pages still read.
func TestPageCorruptionIsErrChecksum(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "paged.seg")
	seg, blocks := buildPaged(t, path)
	col, blk := 1, len(pageLens)-1
	e := seg.index[col][blk]
	want := blocks[3*blk+col]
	seg.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	np := pageCount(e.Len)
	for p := 0; p < np; p++ {
		data := append([]byte(nil), clean...)
		data[e.Off+int64(p*pageSize)+17] ^= 0x04
		bad := filepath.Join(dir, "bad.seg")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegment(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReadBlock(col, blk); !errors.Is(err, ErrChecksum) {
			t.Errorf("page %d flipped: ReadBlock = %v, want ErrChecksum", p, err)
		}
		for q := 0; q < np; q++ {
			a, b := q*pageSize, min((q+1)*pageSize, len(want))
			buf := make([]byte, b-a)
			err := s.ReadUnits(buf, []Unit{{col, blk, a, b}})
			switch {
			case q == p && !errors.Is(err, ErrChecksum):
				t.Errorf("page %d flipped: ReadUnits(page %d) = %v, want ErrChecksum", p, q, err)
			case q != p && (err != nil || !bytes.Equal(buf, want[a:b])):
				t.Errorf("page %d flipped: ReadUnits(page %d) = %v", p, q, err)
			}
		}
		s.Close()
	}
}

// TestSegmentWithoutPagesReadsWhole: a footer without a page section — what
// every segment written before page checksums carries — opens, reports no
// pages, and reads and verifies its blocks whole by their one CRC. A point
// read reads them as the whole units they are: one ReadUnits over every
// block, in file order, returns their bytes, and a page of a block longer than
// one is not a unit of it.
func TestSegmentWithoutPagesReadsWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.seg")
	seg, blocks := buildPaged(t, path)
	seg.Close()
	rewriteFooter(t, path, func([]byte) []byte {
		return encodeFooter(seg.schema, seg.nrows, seg.blockRows, seg.compressed, seg.index, seg.sparse, nil, seg.zones, nil)
	})
	old, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	for i, want := range blocks {
		blk, col := i/3, i%3
		if old.Pages(col, blk) != 0 {
			t.Fatalf("block (%d, %d) reports pages without a page section", col, blk)
		}
		if got, err := old.ReadBlock(col, blk); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadBlock(%d, %d) = %v", col, blk, err)
		}
	}
	lay := old.Layout().Blocks
	var units []Unit
	for _, b := range lay {
		if b.Paged {
			t.Fatalf("block (%d, %d) of %d bytes is paged without a page section", b.Col, b.Blk, b.Len)
		}
		if b.Len > 0 {
			units = append(units, Unit{b.Col, b.Blk, 0, b.Len})
		}
	}
	start, end := lay[0].Off, lay[len(lay)-1].Off+int64(lay[len(lay)-1].Len)
	buf := make([]byte, end-start)
	if err := old.ReadUnits(buf, units); err != nil {
		t.Fatal(err)
	}
	for i, want := range blocks {
		at := old.index[i%3][i/3].Off - start
		if !bytes.Equal(buf[at:at+int64(len(want))], want) {
			t.Fatalf("block (%d, %d) read wrong", i%3, i/3)
		}
	}
	long := lay[len(lay)-1]
	if err := old.ReadUnits(buf[:pageSize], []Unit{{long.Col, long.Blk, 0, pageSize}}); err == nil {
		t.Fatalf("a page of block (%d, %d), %d bytes without page checksums, read as a unit", long.Col, long.Blk, long.Len)
	}
}

// pagedFooterBare is the footer of a small segment whose one paged block
// (column 1) has 2 pages, without sections.
func pagedFooterBare(t testing.TB) []byte {
	s, _ := pagedSegment(t)
	return encodeFooter(s.schema, s.nrows, s.blockRows, s.compressed, s.index, s.sparse, nil, nil, nil)
}

// pagedFooter is pagedFooterBare's segment's footer with its page section,
// and the end of its data area.
func pagedFooter(t testing.TB) ([]byte, int64) {
	s, end := pagedSegment(t)
	return encodeFooter(s.schema, s.nrows, s.blockRows, s.compressed, s.index, s.sparse, nil, nil, s.pages), end
}

func pagedSegment(t testing.TB) (*Segment, int64) {
	w, err := CreateSegment("", testSchema(t), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for col, n := range []int{3, pageSize + 5, 8} {
		if err := w.AppendBlock(col, make([]byte, n), Zone{}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := w.Finish(3, []types.Row{{types.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	return s, w.off
}

// withPageSection appends to a footer written without sections a page
// section claiming count checksums and holding n.
func withPageSection(footer []byte, count uint32, n int) []byte {
	f := append([]byte(nil), footer...)
	f[len(f)-1] = 1 // the section count after the sentinel
	f = append(f, sectionPages)
	f = binary.LittleEndian.AppendUint32(f, uint32(4+4*n))
	f = binary.LittleEndian.AppendUint32(f, count)
	for i := 0; i < n; i++ {
		f = binary.LittleEndian.AppendUint32(f, uint32(i))
	}
	return f
}

// TestFooterPageCount: a page section whose count disagrees with the blocks'
// lengths — one short, one over, huge, or listing a page of a block that
// fits in one — is ErrCorruptFooter; the section the writer wrote decodes.
func TestFooterPageCount(t *testing.T) {
	good, end := pagedFooter(t)
	if _, err := decodeFooter(good, end); err != nil {
		t.Fatalf("the written page section: %v", err)
	}
	bare := pagedFooterBare(t)
	if _, err := decodeFooter(withPageSection(bare, 2, 2), end); err != nil {
		t.Fatalf("a hand-built 2-page section: %v", err)
	}
	small, _ := buildSegment(t, "")
	smallFooter := encodeFooter(small.schema, small.nrows, small.blockRows, small.compressed, small.index, small.sparse, nil, nil, nil)
	smallEnd := small.index[2][1].Off + int64(small.index[2][1].Len)
	cases := map[string]struct {
		footer []byte
		end    int64
	}{
		"one short":               {withPageSection(bare, 1, 1), end},
		"one over":                {withPageSection(bare, 3, 3), end},
		"count past the payload":  {withPageSection(bare, 3, 2), end},
		"huge count":              {withPageSection(bare, 1<<30, 2), end},
		"a page of a small block": {withPageSection(smallFooter, 1, 1), smallEnd},
	}
	for name, c := range cases {
		if _, err := decodeFooter(c.footer, c.end); !errors.Is(err, ErrCorruptFooter) {
			t.Errorf("%s: decodeFooter = %v, want ErrCorruptFooter", name, err)
		}
	}
}

// TestCRCCombine: x2n is its recurrence, and the combined CRC of two parts is
// the CRC of the whole, at every split of a few lengths.
func TestCRCCombine(t *testing.T) {
	for k, p := 0, uint32(1)<<30; k < len(x2n); k, p = k+1, multModP(p, p) {
		if x2n[k] != p {
			t.Fatalf("x2n[%d] = %#08x, want %#08x", k, x2n[k], p)
		}
	}
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 3*pageSize)
	rng.Read(data)
	for _, n := range []int{1, 2, 63, 4096, 5000, len(data)} {
		for cut := 0; cut <= n; cut += 1 + n/17 {
			a, b := data[:cut], data[cut:n]
			if got, want := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), len(b)), crc32.ChecksumIEEE(data[:n]); got != want {
				t.Fatalf("crcCombine at %d of %d = %08x, want %08x", cut, n, got, want)
			}
		}
	}
}

// TestReadUnitsAcrossBlocks: one ReadUnits over consecutive blocks of
// several columns — whole short blocks and pages of long ones, in file
// order — returns their bytes and verifies each unit; a bit flipped in any
// unit is ErrChecksum, and units that leave a byte of the read uncovered are
// an error.
func TestReadUnitsAcrossBlocks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "paged.seg")
	seg, _ := buildPaged(t, path)
	lay := seg.Layout().Blocks
	var units []Unit
	start, end := lay[0].Off, lay[len(lay)-1].Off+int64(lay[len(lay)-1].Len)
	for _, b := range lay {
		if b.Len > 0 {
			units = append(units, Unit{b.Col, b.Blk, 0, b.Len})
		}
	}
	buf := make([]byte, end-start)
	if err := seg.ReadUnits(buf, units); err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		want, _ := seg.ReadBlock(u.Col, u.Blk)
		at := seg.index[u.Col][u.Blk].Off - start
		if !bytes.Equal(buf[at:at+int64(len(want))], want) {
			t.Fatalf("block (%d, %d) read wrong", u.Col, u.Blk)
		}
	}
	if err := seg.ReadUnits(buf, units[1:]); err == nil {
		t.Fatal("units that leave the read's first bytes uncovered: no error")
	}
	seg.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{start, start + 5000, (start + end) / 2, end - 1} {
		data := append([]byte(nil), clean...)
		data[at] ^= 0x10
		bad := filepath.Join(dir, "bad.seg")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegment(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReadUnits(buf, units); !errors.Is(err, ErrChecksum) {
			t.Errorf("bit flipped at %d: ReadUnits = %v, want ErrChecksum", at, err)
		}
		s.Close()
	}
}
