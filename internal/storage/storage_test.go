package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pdtstore/internal/types"
)

func testSchema(t testing.TB) *types.Schema {
	t.Helper()
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "name", Kind: types.String},
		{Name: "price", Kind: types.Float64},
	}, []int{0})
}

func buildSegment(t testing.TB, path string) (*Segment, [][]byte) {
	t.Helper()
	schema := testSchema(t)
	w, err := CreateSegment(path, schema, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{
		[]byte("col0-blk0-xxxxxxxx"), []byte("col1-blk0"), []byte("col2-blk0-yy"),
		[]byte("col0-blk1"), []byte("col1-blk1-zzzz"), []byte("col2-blk1"),
	}
	for blk := 0; blk < 2; blk++ {
		for col := 0; col < 3; col++ {
			z := Zone{Kind: ZoneInt, MinI: int64(blk * 10), MaxI: int64(blk*10 + 9)}
			if err := w.AppendBlock(col, blocks[blk*3+col], z); err != nil {
				t.Fatal(err)
			}
		}
	}
	sparse := []types.Row{
		{types.Int(1)},
		{types.Int(5)},
	}
	seg, err := w.Finish(7, sparse)
	if err != nil {
		t.Fatal(err)
	}
	return seg, blocks
}

func TestSegmentRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-1.seg")
	seg, blocks := buildSegment(t, path)
	seg.Close()

	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NRows() != 7 || seg.BlockRows() != 4 || !seg.Compressed() {
		t.Fatalf("meta mismatch: nrows=%d blockRows=%d compressed=%v", seg.NRows(), seg.BlockRows(), seg.Compressed())
	}
	if seg.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", seg.NumBlocks())
	}
	if got := seg.Schema(); got.NumCols() != 3 || got.Cols[1].Name != "name" || got.Cols[2].Kind != types.Float64 {
		t.Fatalf("schema mismatch: %v", got)
	}
	if sp := seg.Sparse(); len(sp) != 2 || types.CompareRows(sp[1], types.Row{types.Int(5)}) != 0 {
		t.Fatalf("sparse mismatch: %v", sp)
	}
	if z, ok := seg.Zone(2, 1); !ok || z.Kind != ZoneInt || z.MinI != 10 || z.MaxI != 19 {
		t.Fatalf("zone mismatch: %+v ok=%v", z, ok)
	}
	for blk := 0; blk < 2; blk++ {
		for col := 0; col < 3; col++ {
			want := blocks[blk*3+col]
			got, err := seg.ReadBlock(col, blk)
			if err != nil {
				t.Fatalf("ReadBlock(%d,%d): %v", col, blk, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ReadBlock(%d,%d) = %q, want %q", col, blk, got, want)
			}
			if seg.BlockLen(col, blk) != len(want) {
				t.Fatalf("BlockLen(%d,%d) = %d, want %d", col, blk, seg.BlockLen(col, blk), len(want))
			}
		}
	}
}

func TestSegmentEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-empty.seg")
	schema := testSchema(t)
	w, err := CreateSegment(path, schema, 8192, false)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := w.Finish(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.NRows() != 0 || seg.NumBlocks() != 0 {
		t.Fatalf("empty segment: nrows=%d blocks=%d", seg.NRows(), seg.NumBlocks())
	}
}

// TestSegmentDetectsBlockCorruption flips one byte inside a block: the read
// of that block must fail its checksum while the footer still opens fine.
func TestSegmentDetectsBlockCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-corrupt.seg")
	seg, _ := buildSegment(t, path)
	off := seg.index[1][0].Off
	seg.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatalf("footer should still open: %v", err)
	}
	defer seg.Close()
	if _, err := seg.ReadBlock(1, 0); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt block read: err = %v, want checksum mismatch", err)
	}
	if _, err := seg.ReadBlock(0, 0); err != nil {
		t.Fatalf("untouched block must read fine: %v", err)
	}
}

// TestSegmentRejectsPartialFile truncates the file at every suffix boundary
// that removes part of the trailer or footer: OpenSegment must refuse all of
// them (a crashed checkpoint leaves exactly such a file behind).
func TestSegmentRejectsPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-torn.seg")
	seg, _ := buildSegment(t, path)
	seg.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut >= 0; cut -= 7 {
		torn := filepath.Join(dir, "torn.seg")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := OpenSegment(torn); err == nil {
			s.Close()
			t.Fatalf("OpenSegment accepted a file truncated to %d/%d bytes", cut, len(data))
		}
	}
}

// rewriteFooter replaces the footer of the finished segment at path with
// edit(footer) behind a fresh, valid trailer, so OpenSegment's CRC passes and
// only the footer decoder can object.
func rewriteFooter(t *testing.T, path string, edit func(footer []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trailer := data[len(data)-trailerSize:]
	off := binary.LittleEndian.Uint64(trailer[0:8])
	footer := edit(append([]byte(nil), data[off:len(data)-trailerSize]...))
	out := append([]byte(nil), data[:off]...)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint64(out, off)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(footer))
	out = append(out, segMagic[:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFooterRequiresSectionTail: a CRC-valid footer that stops after the
// sparse index, carries a bare trailing block map, or ends inside a section —
// none of which encodeFooter writes — is a corrupt-footer error, never a
// panic and never a silently accepted image.
func TestFooterRequiresSectionTail(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "seg-src.seg")
	seg, _ := buildSegment(t, src)
	// The footer up to and including the sparse index: what encodeFooter
	// writes with no sections, minus its sentinel u32 and section-count byte.
	bare := encodeFooter(seg.schema, seg.nrows, seg.blockRows, seg.compressed, seg.index, seg.sparse, nil, nil)
	bare = bare[:len(bare)-5]
	seg.Close()
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string, edit func(footer []byte) []byte) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		rewriteFooter(t, path, edit)
		s, err := OpenSegment(path)
		if err == nil {
			s.Close()
		}
		return err
	}
	if err := open("intact.seg", func(f []byte) []byte { return f }); err != nil {
		t.Fatalf("rewriteFooter broke an untouched footer: %v", err)
	}
	cases := map[string]func(f []byte) []byte{
		"stops after sparse index": func([]byte) []byte { return bare },
		"bare trailing block map": func([]byte) []byte {
			f := binary.LittleEndian.AppendUint32(append([]byte(nil), bare...), 3)
			for c := 0; c < 3; c++ {
				f = binary.LittleEndian.AppendUint32(f, 0)
			}
			return f
		},
	}
	// Every cut inside the section tail: the section count, a section header,
	// a payload the declared length overruns.
	footerLen := int(binary.LittleEndian.Uint32(full[len(full)-trailerSize+8:]))
	for cut := 1; cut <= footerLen-len(bare); cut++ {
		cut := cut
		cases[fmt.Sprintf("section tail short by %d", cut)] = func(f []byte) []byte { return f[:len(f)-cut] }
	}
	for name, edit := range cases {
		if err := open("case.seg", edit); err == nil || !strings.Contains(err.Error(), "corrupt footer") {
			t.Errorf("%s: OpenSegment = %v, want a corrupt-footer error", name, err)
		}
	}
}

// assertIndexable restates, by doing it, what readers do to a parsed footer
// without checking: divide by the block size, index every column (or the
// block map) and the sparse index up to the logical block count, land the
// last row in the last block, and size a read buffer from any entry.
func assertIndexable(t *testing.T, s *Segment, dataEnd int64) {
	t.Helper()
	nb := s.NumBlocks()
	if s.places != nil {
		nb = len(s.places[0])
	}
	for c := range s.index {
		for blk := 0; blk < nb; blk++ {
			if s.places != nil {
				_ = s.places[c][blk]
			} else {
				_ = s.index[c][blk]
			}
		}
		for blk, e := range s.index[c] {
			if e.Off < int64(len(segMagic)) || e.Off+int64(e.Len) > dataEnd {
				t.Fatalf("column %d block %d at [%d, +%d) accepted in a data area ending at %d", c, blk, e.Off, e.Len, dataEnd)
			}
		}
	}
	if len(s.sparse) != nb {
		t.Fatalf("%d sparse keys accepted for %d blocks", len(s.sparse), nb)
	}
	if s.nrows == 0 && nb == 0 {
		return
	}
	if last := (s.nrows - 1) / uint64(s.blockRows); s.nrows == 0 || last != uint64(nb-1) {
		t.Fatalf("%d rows at %d per block accepted for %d blocks", s.nrows, s.blockRows, nb)
	}
}

// TestFooterGeometry: a footer whose checksum holds but whose counts disagree
// — what a buggy or hostile writer can produce through CreateSegment itself —
// is ErrCorruptFooter at OpenSegment, not a division by zero, an index out of
// range or a 4 GiB read buffer in whichever reader trips over it first.
func TestFooterGeometry(t *testing.T) {
	sparse := []types.Row{{types.Int(1)}, {types.Int(5)}}
	grow := func(col int) func(w *SegmentWriter) {
		return func(w *SegmentWriter) { w.AppendBlock(col, []byte("one-more"), Zone{}) }
	}
	cases := []struct {
		name      string
		blockRows int
		nrows     uint64
		sparse    []types.Row
		edit      func(w *SegmentWriter) // after two blocks of every column went in
		ok        bool
	}{
		{"intact", 4, 7, sparse, nil, true},
		{"intact, last block full", 4, 8, sparse, nil, true},
		{"intact, block map over uneven columns", 4, 7, sparse, func(w *SegmentWriter) {
			grow(1)(w)
			w.SetPlacements([][]BlockPlace{{{0, 0}, {0, 1}}, {{0, 2}, {0, 1}}, {{0, 0}, {0, 1}}})
		}, true},
		{"zero block size", 0, 7, sparse, nil, false},
		{"rows past the indexed blocks", 4, 100, sparse, nil, false},
		{"rows short of the indexed blocks", 4, 4, sparse, nil, false},
		{"sparse index shorter than the block count", 4, 7, sparse[:1], nil, false},
		{"sparse index longer than the block count", 4, 7, append(sparse[:2:2], sparse[1]), nil, false},
		{"uneven columns and no block map", 4, 7, sparse, grow(0), false},
		{"uneven block map", 4, 7, sparse, func(w *SegmentWriter) {
			w.SetPlacements([][]BlockPlace{{{0, 0}, {0, 1}}, {{0, 0}}, {{0, 0}, {0, 1}}})
		}, false},
		{"block before the data area", 4, 7, sparse, func(w *SegmentWriter) { w.index[1][0].Off = 0 }, false},
		{"block past the data area", 4, 7, sparse, func(w *SegmentWriter) { w.index[2][1].Len = 1 << 31 }, false},
		{"block at a negative offset", 4, 7, sparse, func(w *SegmentWriter) { w.index[0][1].Off = -9 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.seg")
			w, err := CreateSegment(path, testSchema(t), tc.blockRows, true)
			if err != nil {
				t.Fatal(err)
			}
			for blk := 0; blk < 2; blk++ {
				for col := 0; col < 3; col++ {
					if err := w.AppendBlock(col, []byte(fmt.Sprintf("col%d-blk%d", col, blk)), Zone{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.edit != nil {
				tc.edit(w)
			}
			seg, err := w.Finish(tc.nrows, tc.sparse)
			if err != nil {
				t.Fatal(err)
			}
			dataEnd := w.off
			seg.Close()
			seg, err = OpenSegment(path)
			if !tc.ok {
				if !errors.Is(err, ErrCorruptFooter) {
					t.Fatalf("OpenSegment = %v, want ErrCorruptFooter", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			assertIndexable(t, seg, dataEnd)
		})
	}
}

// FuzzDecodeFooter: any bytes behind a valid checksum parse into
// ErrCorruptFooter or into a segment readers can index blindly; never a
// panic. Seeded with the three shapes encodeFooter writes: zones only, block
// map and zones, neither.
func FuzzDecodeFooter(f *testing.F) {
	seg, _ := buildSegment(f, filepath.Join(f.TempDir(), "seed.seg"))
	seg.Close()
	places := [][]BlockPlace{{{0, 0}, {1, 1}}, {{1, 0}, {1, 1}}, {{0, 5}, {1, 0}}}
	zones := [][]Zone{{{Kind: ZoneString, MinS: "a", MaxS: "zz", MaxSTrunc: true}, {}}, {{Kind: ZoneFloat, MinF: -1, MaxF: 2}, {}}, {{}, {}}}
	dataEnd := seg.index[2][1].Off + int64(seg.index[2][1].Len)
	f.Add(encodeFooter(seg.schema, seg.nrows, seg.blockRows, seg.compressed, seg.index, seg.sparse, nil, seg.zones), dataEnd)
	f.Add(encodeFooter(seg.schema, seg.nrows, seg.blockRows, seg.compressed, seg.index, seg.sparse, places, zones), dataEnd)
	f.Add(encodeFooter(seg.schema, seg.nrows, seg.blockRows, seg.compressed, seg.index, seg.sparse, nil, nil), dataEnd)
	f.Fuzz(func(t *testing.T, footer []byte, dataEnd int64) {
		s, err := decodeFooter(footer, dataEnd)
		if err != nil {
			if !errors.Is(err, ErrCorruptFooter) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		assertIndexable(t, s, dataEnd)
	})
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v, want absent", ok, err)
	}
	m := Manifest{Generation: 3, Shards: []ShardEntry{{Segment: "seg-0000000000000003-s0.seg", LSN: 42}}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest = %+v, want %+v", got, m)
	}
	// Overwrite with the next generation: the swap replaces, never appends.
	m2 := Manifest{Generation: 4, Shards: []ShardEntry{
		{Segment: "seg-0000000000000004-s0.seg", Segments: []string{"seg-0000000000000003-s0.seg", "seg-0000000000000004-s0.seg"}, LSN: 99},
		{Segment: "seg-0000000000000004-s1.seg", LSN: 7},
	}, Splits: []types.Row{{types.Int(10)}}}
	if err := WriteManifest(dir, m2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := LoadManifest(dir); !reflect.DeepEqual(got, m2) {
		t.Fatalf("manifest after swap = %+v, want %+v", got, m2)
	}
}

// TestManifestLiftsFlatForm: a manifest naming its image at top level (what
// directories written before every store had a Shards list hold) loads as the
// one-shard form, with the flat fields cleared.
func TestManifestLiftsFlatForm(t *testing.T) {
	dir := t.TempDir()
	chain := []string{"seg-0000000000000002.seg", "seg-0000000000000003.seg"}
	for _, flat := range []Manifest{
		{Generation: 3, Segment: chain[1], LSN: 42},
		{Generation: 3, Segment: chain[1], Segments: chain, LSN: 42},
	} {
		if err := WriteManifest(dir, flat); err != nil {
			t.Fatal(err)
		}
		got, ok, err := LoadManifest(dir)
		if err != nil || !ok {
			t.Fatalf("LoadManifest(%+v): ok=%v err=%v", flat, ok, err)
		}
		want := Manifest{Generation: 3, Shards: []ShardEntry{{Segment: flat.Segment, Segments: flat.Segments, LSN: 42}}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lifted manifest = %+v, want %+v", got, want)
		}
	}
	if err := WriteManifest(dir, Manifest{Generation: 3, LSN: 42}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("a manifest naming no segment in either form loaded")
	}
}

// TestManifestRejectsHostileNamesAndSplits: a checkpoint unlinks the segment
// names a manifest supersedes, so a name that is not a plain file in the store
// directory must not load; nor may split keys ShardOf cannot binary-search.
func TestManifestRejectsHostileNamesAndSplits(t *testing.T) {
	dir := t.TempDir()
	one := func(seg string, chain ...string) []ShardEntry { return []ShardEntry{{Segment: seg, Segments: chain}} }
	three := []ShardEntry{{Segment: "a.seg"}, {Segment: "b.seg"}, {Segment: "c.seg"}}
	for name, m := range map[string]Manifest{
		"parent directory":   {Shards: one("../x.seg")},
		"absolute path":      {Shards: one("/tmp/x.seg")},
		"subdirectory":       {Shards: one("wal/x.seg")},
		"dot":                {Shards: one(".")},
		"dot-dot":            {Shards: one("..")},
		"chain member":       {Shards: one("b.seg", "../../a.seg", "b.seg")},
		"flat form":          {Segment: "../MANIFEST"},
		"flat form chain":    {Segment: "b.seg", Segments: []string{"../a.seg", "b.seg"}},
		"splits descend":     {Shards: three, Splits: []types.Row{{types.Int(20)}, {types.Int(10)}}},
		"splits repeat":      {Shards: three, Splits: []types.Row{{types.Int(10)}, {types.Int(10)}}},
		"splits mix kinds":   {Shards: three, Splits: []types.Row{{types.Int(10)}, {types.Str("a")}}},
		"splits mix lengths": {Shards: three, Splits: []types.Row{{types.Int(10)}, {types.Int(10), types.Int(1)}}},
		"empty split":        {Shards: three[:2], Splits: []types.Row{{}}},
		"unknown kind":       {Shards: three[:2], Splits: []types.Row{{types.Value{K: 9}}}},
	} {
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if got, _, err := LoadManifest(dir); err == nil {
			t.Errorf("%s: manifest loaded as %+v", name, got)
		}
	}
}

// FuzzLoadManifest: arbitrary manifest bytes load as an error, or as a
// manifest whose every segment is a plain file name, whose splits ascend, and
// which WriteManifest and LoadManifest carry over unchanged — never a panic.
func FuzzLoadManifest(f *testing.F) {
	for _, m := range []Manifest{
		{Generation: 3, Segment: "seg-0000000000000003.seg", LSN: 42},
		{Generation: 4, Shards: []ShardEntry{{Segment: "seg-0000000000000004-s0.seg", LSN: 9}, {Segment: "seg-0000000000000004-s1.seg", LSN: 7}},
			Splits: []types.Row{{types.Int(10), types.Str("k")}}},
		{Generation: 5, Shards: []ShardEntry{{Segment: "seg-0000000000000005-s0.seg",
			Segments: []string{"seg-0000000000000003-s0.seg", "seg-0000000000000005-s0.seg"}, LSN: 11}}},
	} {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := LoadManifest(dir)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("a manifest file loaded as absent")
		}
		for _, sh := range m.Shards {
			for _, nm := range sh.Chain() {
				if nm == "." || nm == ".." || filepath.Base(nm) != nm {
					t.Fatalf("segment %q loaded", nm)
				}
			}
		}
		for i := 1; i < len(m.Splits); i++ {
			if types.CompareRows(m.Splits[i-1], m.Splits[i]) >= 0 {
				t.Fatalf("splits %v loaded out of order", m.Splits)
			}
		}
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if again, _, err := LoadManifest(dir); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip of %+v = %+v, %v", m, again, err)
		}
	})
}

func TestManifestCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest must be an error, not a fresh-store signal")
	}
}
