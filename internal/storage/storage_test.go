package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pdtstore/internal/types"
)

func testSchema(t *testing.T) *types.Schema {
	t.Helper()
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "name", Kind: types.String},
		{Name: "price", Kind: types.Float64},
	}, []int{0})
}

func buildSegment(t *testing.T, path string) (*Segment, [][]byte) {
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

func TestManifestCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest must be an error, not a fresh-store signal")
	}
}
