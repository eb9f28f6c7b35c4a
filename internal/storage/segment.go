// Package storage implements the durable on-disk layer under the store: the
// segment file format holding one checkpointed stable table image (per-column
// encoded blocks plus a self-describing footer), and the MANIFEST pointer
// that names the current segment generation and the WAL position it contains.
//
// A segment is immutable once written. Blocks are laid out in write order and
// located through the footer's block index, so readers fetch any (column,
// block) pair with a single pread; every block carries a CRC32 verified on
// each cold read, and the footer itself is CRC-framed behind a fixed-size
// trailer at the end of the file. A partially written segment (crash before
// Finish) has no trailer and is simply unreadable — recovery never trusts a
// segment that the MANIFEST does not name.
//
// A segment created without a path has no file: its writer keeps the encoded
// slices it is handed and ReadBlock returns them, under the same index, CRCs,
// zones, placements and reference counts as a file's.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"pdtstore/internal/types"
)

var segMagic = [8]byte{'P', 'D', 'T', 'S', 'E', 'G', '0', '1'}

// trailerSize is the fixed tail of a finished segment:
// u64 footer offset, u32 footer length, u32 footer CRC, 8-byte magic.
const trailerSize = 8 + 4 + 4 + 8

// BlockEntry locates one encoded column block inside a segment file.
type BlockEntry struct {
	Off int64
	Len uint32
	CRC uint32
}

// BlockPlace resolves one logical (column, block) coordinate of a table image
// to the physical block that holds its bytes: Seg indexes the generation's
// segment chain (oldest first, the segment carrying the map is always last)
// and Blk is the block's position within that segment's own per-column index.
// An incremental checkpoint writes only dirty blocks into its new segment and
// inherits every other placement from the previous generation verbatim.
type BlockPlace struct {
	Seg uint32
	Blk uint32
}

// SegmentWriter streams encoded blocks into a new segment: a file, or memory
// when it was created without a path. Blocks may arrive in any column
// interleaving (the builder emits one row group at a time); the footer index
// records where each landed.
type SegmentWriter struct {
	f          *os.File // nil for a memory segment
	path       string
	w          *bufio.Writer
	mem        [][][]byte // memory segment: mem[col][blk] is the slice AppendBlock was given
	off        int64
	schema     *types.Schema
	blockRows  int
	compressed bool
	index      [][]BlockEntry
	zones      [][]Zone
	places     [][]BlockPlace
	err        error
}

// CreateSegment starts writing a segment file at path (truncating any
// previous file there — stray partial segments from a crashed checkpoint are
// overwritten, never appended to). An empty path starts a memory segment,
// which cannot fail.
func CreateSegment(path string, schema *types.Schema, blockRows int, compressed bool) (*SegmentWriter, error) {
	w := &SegmentWriter{
		path:       path,
		off:        int64(len(segMagic)),
		schema:     schema,
		blockRows:  blockRows,
		compressed: compressed,
		index:      make([][]BlockEntry, schema.NumCols()),
		zones:      make([][]Zone, schema.NumCols()),
	}
	if path == "" {
		w.mem = make([][][]byte, schema.NumCols())
		return w, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create segment: %w", err)
	}
	w.f, w.w = f, bufio.NewWriterSize(f, 1<<20)
	if _, err := w.w.Write(segMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// AppendBlock writes one encoded column block and records it in the index
// along with its zone-map statistics (pass a zero Zone — Kind ZoneNone — when
// the caller has none; such blocks are never skipped). A memory segment keeps
// enc itself, so the caller must not write to it afterwards.
func (w *SegmentWriter) AppendBlock(col int, enc []byte, z Zone) error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		w.mem[col] = append(w.mem[col], enc)
	} else if _, err := w.w.Write(enc); err != nil {
		w.err = fmt.Errorf("storage: write block: %w", err)
		return w.err
	}
	w.index[col] = append(w.index[col], BlockEntry{
		Off: w.off,
		Len: uint32(len(enc)),
		CRC: crc32.ChecksumIEEE(enc),
	})
	w.zones[col] = append(w.zones[col], z)
	w.off += int64(len(enc))
	return nil
}

// SetPlacements attaches the logical→physical block map that Finish writes
// into the footer. places[col][blk] locates logical block blk of column col
// within the generation's segment chain; a nil map means the segment is
// self-contained (every logical block lives in this file, in order). Must be
// called before Finish.
func (w *SegmentWriter) SetPlacements(places [][]BlockPlace) {
	w.places = places
}

// Finish writes the footer and trailer, fsyncs the file and its directory,
// and returns the finished segment opened for reading (the same descriptor;
// pread works regardless of the write-mode open). A memory segment has
// nothing to write: its metadata goes straight to the reader.
func (w *SegmentWriter) Finish(nrows uint64, sparse []types.Row) (*Segment, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.f != nil {
		if err := w.seal(nrows, sparse); err != nil {
			return nil, err
		}
	}
	s := &Segment{
		f:          w.f,
		path:       w.path,
		mem:        w.mem,
		schema:     w.schema,
		nrows:      nrows,
		blockRows:  w.blockRows,
		compressed: w.compressed,
		sparse:     sparse,
		index:      w.index,
		zones:      w.zones,
		places:     w.places,
	}
	s.refs.Store(1)
	return s, nil
}

// seal makes a segment file durable: footer, trailer, flush, fsync, directory
// sync.
func (w *SegmentWriter) seal(nrows uint64, sparse []types.Row) error {
	footer := encodeFooter(w.schema, nrows, w.blockRows, w.compressed, w.index, sparse, w.places, w.zones)
	footerOff := w.off
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(trailer[8:12], uint32(len(footer)))
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.ChecksumIEEE(footer))
	copy(trailer[16:], segMagic[:])
	if _, err := w.w.Write(footer); err != nil {
		return err
	}
	if _, err := w.w.Write(trailer[:]); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync segment: %w", err)
	}
	syncDir(filepath.Dir(w.path))
	return nil
}

// Abort closes and removes the partial file (the orderly error path; a crash
// leaves the partial file behind, which Open-side GC removes) and fails every
// later append.
func (w *SegmentWriter) Abort() {
	if w.f != nil {
		w.f.Close()
		os.Remove(w.path)
		w.f = nil
	}
	w.err = fmt.Errorf("storage: segment writer aborted")
}

// Segment is a finished, immutable segment open for block reads, from its
// file or, for a memory segment, from the slices its writer kept.
//
// Segments are shared between store generations by incremental checkpoints:
// generation N+1's image can resolve unchanged blocks straight into
// generation N's file. Each sharing store holds one reference (Retain /
// Release); the store that sees the count hit zero closes the descriptor and
// evicts the segment's buffer-pool entries.
type Segment struct {
	f          *os.File // nil for a memory segment
	path       string
	mem        [][][]byte
	closed     atomic.Bool
	refs       atomic.Int64
	schema     *types.Schema
	nrows      uint64
	blockRows  int
	compressed bool
	sparse     []types.Row
	index      [][]BlockEntry
	zones      [][]Zone
	places     [][]BlockPlace
}

// OpenSegment opens and validates an existing segment file.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := readSegmentMeta(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func readSegmentMeta(f *os.File, path string) (*Segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < int64(len(segMagic))+trailerSize {
		return nil, fmt.Errorf("storage: %s: too short to be a segment (%d bytes)", path, fi.Size())
	}
	var trailer [trailerSize]byte
	if _, err := f.ReadAt(trailer[:], fi.Size()-trailerSize); err != nil {
		return nil, err
	}
	if [8]byte(trailer[16:24]) != segMagic {
		return nil, fmt.Errorf("storage: %s: bad segment magic (torn or foreign file)", path)
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(trailer[8:12]))
	footerCRC := binary.LittleEndian.Uint32(trailer[12:16])
	if footerOff < int64(len(segMagic)) || footerOff+footerLen+trailerSize != fi.Size() {
		return nil, fmt.Errorf("storage: %s: inconsistent footer bounds", path)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, footerOff); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(footer) != footerCRC {
		return nil, fmt.Errorf("storage: %s: footer checksum mismatch", path)
	}
	s, err := decodeFooter(footer, footerOff)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	s.f, s.path = f, path
	s.refs.Store(1)
	return s, nil
}

// Schema returns the schema stored in the footer.
func (s *Segment) Schema() *types.Schema { return s.schema }

// NRows returns the row count stored in the footer.
func (s *Segment) NRows() uint64 { return s.nrows }

// BlockRows returns the rows-per-block geometry.
func (s *Segment) BlockRows() int { return s.blockRows }

// Compressed reports whether blocks were written compressed.
func (s *Segment) Compressed() bool { return s.compressed }

// Sparse returns the sparse index: the sort key of each block's first row.
func (s *Segment) Sparse() []types.Row { return s.sparse }

// NumBlocks returns the per-column block count.
func (s *Segment) NumBlocks() int {
	if len(s.index) == 0 {
		return 0
	}
	return len(s.index[0])
}

// BlockLen returns the encoded size of one block.
func (s *Segment) BlockLen(col, blk int) int { return int(s.index[col][blk].Len) }

// ColBlocks returns the number of physical blocks this file stores for one
// column (incremental segments hold a different count per column).
func (s *Segment) ColBlocks(col int) int { return len(s.index[col]) }

// TotalBlocks returns the number of physical blocks stored in this file,
// summed over all columns. For a chain member this counts what the file
// holds, not what the generation's logical image references from it.
func (s *Segment) TotalBlocks() int {
	n := 0
	for _, col := range s.index {
		n += len(col)
	}
	return n
}

// Placements returns the logical→physical block map written by an
// incremental checkpoint, or nil when the segment is self-contained.
func (s *Segment) Placements() [][]BlockPlace { return s.places }

// Zone returns the zone-map statistics of one physical block of this file,
// and whether usable stats were recorded for it. Segments written before the
// zone-map format (and blocks written with ZoneNone) report ok=false and must
// not be skipped.
func (s *Segment) Zone(col, blk int) (Zone, bool) {
	if col >= len(s.zones) || blk >= len(s.zones[col]) {
		return Zone{}, false
	}
	z := s.zones[col][blk]
	return z, z.Kind != ZoneNone
}

// Retain adds one reference to the segment. A newer generation that inherits
// blocks from this file retains it so the descriptor outlives the older
// store's release.
func (s *Segment) Retain() { s.refs.Add(1) }

// Release drops one reference and reports whether that was the last: the
// caller owning the final reference must close the segment and evict its
// buffer-pool entries.
func (s *Segment) Release() bool { return s.refs.Add(-1) <= 0 }

// Path returns the segment's file path, empty for a memory segment.
func (s *Segment) Path() string { return s.path }

// ReadBlock reads one encoded block — a pread, or the slice a memory segment
// kept — and verifies its checksum.
func (s *Segment) ReadBlock(col, blk int) ([]byte, error) {
	e := s.index[col][blk]
	var buf []byte
	if s.f == nil {
		buf = s.mem[col][blk]
	} else {
		buf = make([]byte, e.Len)
		if _, err := s.f.ReadAt(buf, e.Off); err != nil {
			return nil, fmt.Errorf("storage: %s: read col %d blk %d: %w", s.path, col, blk, err)
		}
	}
	if crc32.ChecksumIEEE(buf) != e.CRC {
		return nil, fmt.Errorf("storage: %s: col %d blk %d checksum mismatch", s.path, col, blk)
	}
	return buf, nil
}

// Close closes the underlying file. Reads of a file after Close fail; a
// memory segment has no descriptor and only records that it was closed. It
// is idempotent — a retired image may be closed both by the version release
// that saw its last pinned reader finish and by DB.Close's sweep — and safe
// for those two callers to race.
func (s *Segment) Close() error {
	if s.closed.Swap(true) || s.f == nil {
		return nil
	}
	return s.f.Close()
}

// Closed reports whether Close has run, i.e. the segment's descriptor has
// been released. The retired-image tests assert on it.
func (s *Segment) Closed() bool { return s.closed.Load() }

// --- footer encoding ---------------------------------------------------------

// Section tags of the footer's extensible tail. The tail starts with a
// sentinel u32, then a section count, then [tag][len][payload] sections.
// Unknown tags are skipped, so older readers of a newer footer degrade
// gracefully instead of failing.
const (
	sectionSentinel = 0xFFFFFFFE
	sectionPlaces   = 1
	sectionZones    = 2
)

func encodeFooter(schema *types.Schema, nrows uint64, blockRows int, compressed bool, index [][]BlockEntry, sparse []types.Row, places [][]BlockPlace, zones [][]Zone) []byte {
	var buf []byte
	buf = appendSchema(buf, schema)
	buf = binary.LittleEndian.AppendUint64(buf, nrows)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(blockRows))
	if compressed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(index)))
	for _, col := range index {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(col)))
		for _, e := range col {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Off))
			buf = binary.LittleEndian.AppendUint32(buf, e.Len)
			buf = binary.LittleEndian.AppendUint32(buf, e.CRC)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sparse)))
	for _, row := range sparse {
		buf = types.AppendRow(buf, row)
	}
	// The tail after the sparse rows is the extensible part of the footer.
	var sections []struct {
		tag     byte
		payload []byte
	}
	if places != nil {
		var p []byte
		p = binary.LittleEndian.AppendUint32(p, uint32(len(places)))
		for _, col := range places {
			p = binary.LittleEndian.AppendUint32(p, uint32(len(col)))
			for _, pl := range col {
				p = binary.LittleEndian.AppendUint32(p, pl.Seg)
				p = binary.LittleEndian.AppendUint32(p, pl.Blk)
			}
		}
		sections = append(sections, struct {
			tag     byte
			payload []byte
		}{sectionPlaces, p})
	}
	if zones != nil {
		var p []byte
		p = binary.LittleEndian.AppendUint32(p, uint32(len(zones)))
		for _, col := range zones {
			p = binary.LittleEndian.AppendUint32(p, uint32(len(col)))
			for _, z := range col {
				p = appendZone(p, z)
			}
		}
		sections = append(sections, struct {
			tag     byte
			payload []byte
		}{sectionZones, p})
	}
	buf = binary.LittleEndian.AppendUint32(buf, sectionSentinel)
	buf = append(buf, byte(len(sections)))
	for _, sec := range sections {
		buf = append(buf, sec.tag)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec.payload)))
		buf = append(buf, sec.payload...)
	}
	return buf
}

// ErrCorruptFooter is what every footer that parses wrongly, or parses into a
// geometry no reader could index safely, is reported as.
var ErrCorruptFooter = errors.New("corrupt footer")

// decodeFooter parses a checksummed footer and validates what the checksum
// cannot: that the geometry it describes is one readers can index without
// further checks. dataEnd is the footer's own offset, the end of the blocks.
func decodeFooter(buf []byte, dataEnd int64) (*Segment, error) {
	s, err := parseFooter(buf)
	if err == nil {
		err = s.checkGeometry(dataEnd)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptFooter, err)
	}
	return s, nil
}

// checkGeometry rejects a footer whose counts disagree: a zero block size,
// columns (or block-map columns) of different lengths, a sparse index or row
// count that does not match the logical block count, or a block entry outside
// the data area [len(segMagic), dataEnd).
func (s *Segment) checkGeometry(dataEnd int64) error {
	if s.blockRows <= 0 {
		return fmt.Errorf("block size %d", s.blockRows)
	}
	nb := s.NumBlocks()
	if s.places != nil {
		nb = len(s.places[0])
		for c, col := range s.places {
			if len(col) != nb {
				return fmt.Errorf("block map column %d holds %d blocks, column 0 holds %d", c, len(col), nb)
			}
		}
	}
	for c, col := range s.index {
		if s.places == nil && len(col) != nb {
			return fmt.Errorf("column %d holds %d blocks, column 0 holds %d, and there is no block map", c, len(col), nb)
		}
		for b, e := range col {
			if e.Off < int64(len(segMagic)) || e.Off > dataEnd-int64(e.Len) {
				return fmt.Errorf("column %d block %d at [%d, +%d) lies outside the data area ending at %d", c, b, e.Off, e.Len, dataEnd)
			}
		}
	}
	if full, br := uint64(nb)*uint64(s.blockRows), uint64(s.blockRows); s.nrows > full || s.nrows+br <= full || len(s.sparse) != nb {
		return fmt.Errorf("%d rows at %d per block do not fill %d blocks under %d sparse keys", s.nrows, s.blockRows, nb, len(s.sparse))
	}
	return nil
}

func parseFooter(buf []byte) (*Segment, error) {
	r := &types.Reader{Buf: buf}
	schema, err := readSchema(r)
	if err != nil {
		return nil, err
	}
	s := &Segment{schema: schema}
	s.nrows = r.U64()
	s.blockRows = int(r.U32())
	s.compressed = r.U8() != 0
	ncols := int(r.U32())
	if r.Err != nil || ncols != schema.NumCols() {
		return nil, fmt.Errorf("index covers %d columns, schema has %d", ncols, schema.NumCols())
	}
	s.index = make([][]BlockEntry, ncols)
	for c := range s.index {
		nblk := int(r.U32())
		if r.Err != nil || nblk > len(r.Buf)/16 {
			return nil, fmt.Errorf("bad block count %d", nblk)
		}
		col := make([]BlockEntry, nblk)
		for b := range col {
			col[b] = BlockEntry{Off: int64(r.U64()), Len: r.U32(), CRC: r.U32()}
		}
		s.index[c] = col
	}
	nsparse := int(r.U32())
	if r.Err != nil || nsparse > len(r.Buf)/4 {
		return nil, fmt.Errorf("bad sparse count %d", nsparse)
	}
	s.sparse = make([]types.Row, nsparse)
	for i := range s.sparse {
		s.sparse[i] = r.Row()
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if marker := r.U32(); r.Err != nil || marker != sectionSentinel {
		return nil, fmt.Errorf("no section tail after the sparse index")
	}
	nsec := int(r.U8())
	for i := 0; i < nsec; i++ {
		tag := r.U8()
		plen := int(r.U32())
		if r.Err != nil || plen > len(r.Buf) {
			return nil, fmt.Errorf("bad section length %d", plen)
		}
		sr := &types.Reader{Buf: r.Take(plen)}
		switch tag {
		case sectionPlaces:
			if s.places, err = decodePlaces(sr, ncols); err != nil {
				return nil, err
			}
		case sectionZones:
			if s.zones, err = decodeZones(sr, ncols); err != nil {
				return nil, err
			}
		default:
			// Unknown section written by a newer format: skip it.
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return s, nil
}

func decodePlaces(r *types.Reader, ncols int) ([][]BlockPlace, error) {
	npcols := int(r.U32())
	if r.Err != nil || npcols != ncols {
		return nil, fmt.Errorf("block map covers %d columns, schema has %d", npcols, ncols)
	}
	places := make([][]BlockPlace, npcols)
	for c := range places {
		nblk := int(r.U32())
		if r.Err != nil || nblk > len(r.Buf)/8 {
			return nil, fmt.Errorf("bad block map count %d", nblk)
		}
		col := make([]BlockPlace, nblk)
		for b := range col {
			col[b] = BlockPlace{Seg: r.U32(), Blk: r.U32()}
		}
		places[c] = col
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return places, nil
}

func decodeZones(r *types.Reader, ncols int) ([][]Zone, error) {
	nzcols := int(r.U32())
	if r.Err != nil || nzcols != ncols {
		return nil, fmt.Errorf("zone map covers %d columns, schema has %d", nzcols, ncols)
	}
	zones := make([][]Zone, nzcols)
	for c := range zones {
		nblk := int(r.U32())
		if r.Err != nil || nblk > len(r.Buf)/5 {
			return nil, fmt.Errorf("bad zone count %d", nblk)
		}
		col := make([]Zone, nblk)
		for b := range col {
			col[b] = readZone(r)
		}
		zones[c] = col
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return zones, nil
}

// syncDir fsyncs a directory so a just-created/renamed/removed entry is
// durable. Errors are ignored: some filesystems reject directory fsync, and
// the worst case is the pre-rename state after a crash, which recovery
// already handles.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
