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
// per page, and ReadPages puts exactly the pages covering a byte range at
// their block offsets — in a file written and reopened, and in memory.
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
				buf := bytes.Repeat([]byte{0xA5}, len(want))
				n, err := s.ReadPages(col, blk, buf, r[0], r[1])
				a, b := r[0]/pageSize*pageSize, min((r[1]+pageSize-1)/pageSize*pageSize, len(want))
				if err != nil || n != b-a {
					t.Fatalf("ReadPages(%d, %d, [%d, %d)) = %d, %v; want %d bytes", col, blk, r[0], r[1], n, err, b-a)
				}
				if !bytes.Equal(buf[a:b], want[a:b]) || !allA5(buf[:a]) || !allA5(buf[b:]) {
					t.Fatalf("ReadPages(%d, %d, [%d, %d)) wrote outside its pages or the wrong bytes", col, blk, r[0], r[1])
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
		buf := make([]byte, e.Len)
		for q := 0; q < np; q++ {
			_, err := s.ReadPages(col, blk, buf, q*pageSize, q*pageSize+1)
			switch {
			case q == p && !errors.Is(err, ErrChecksum):
				t.Errorf("page %d flipped: ReadPages(page %d) = %v, want ErrChecksum", p, q, err)
			case q != p && (err != nil || !bytes.Equal(buf[q*pageSize:min((q+1)*pageSize, len(want))], want[q*pageSize:min((q+1)*pageSize, len(want))])):
				t.Errorf("page %d flipped: ReadPages(page %d) = %v", p, q, err)
			}
		}
		s.Close()
	}
}

// TestSegmentWithoutPagesReadsWhole: a footer without a page section — what
// every segment written before page checksums carries — opens, reports no
// pages, and reads and verifies its blocks whole by their one CRC.
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
