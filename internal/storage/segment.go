// Package storage implements the durable on-disk layer under the store: the
// segment file format holding one checkpointed stable table image (per-column
// encoded blocks plus a self-describing footer), and the MANIFEST pointer
// that names the current segment generation and the WAL position it contains.
//
// A segment is immutable once written. Blocks are laid out in write order and
// located through the footer's block index, so readers fetch any (column,
// block) pair with a single pread. Every block carries a CRC-32, and every
// block longer than a page also one per 4 KB page of it (the footer's page
// section): a whole read verifies the block's pages, or its one CRC when it
// has none, and a point read fetches and verifies only the units its rows lie
// in — whole pages of a paged block, or whole blocks — several blocks' at a
// time (ReadUnits). The footer itself is CRC-framed behind a fixed-size
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
	"sort"
	"sync"
	"sync/atomic"

	"pdtstore/internal/types"
	"pdtstore/internal/vfs"
)

var segMagic = [8]byte{'P', 'D', 'T', 'S', 'E', 'G', '0', '1'}

// trailerSize is the fixed tail of a finished segment:
// u64 footer offset, u32 footer length, u32 footer CRC, 8-byte magic.
const trailerSize = 8 + 4 + 4 + 8

// BlockEntry locates one encoded column block inside a segment file. CRC is
// the whole block's; a block longer than a page also has page checksums, the
// first of them at index page of its segment's flat page list.
type BlockEntry struct {
	Off  int64
	Len  uint32
	CRC  uint32
	page uint32
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
	f          vfs.File // nil for a memory segment
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
	pages      []uint32 // page checksums, in append order; each entry's page indexes its first
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
	f, err := vfs.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create segment: %w", err)
	}
	w.f, w.w = f, bufio.NewWriterSize(f, 64<<10)
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
	e := BlockEntry{Off: w.off, Len: uint32(len(enc)), page: uint32(len(w.pages))}
	e.CRC = w.checksum(enc)
	if w.f == nil {
		w.mem[col] = append(w.mem[col], enc)
	} else if _, err := w.w.Write(enc); err != nil {
		w.err = fmt.Errorf("storage: write block: %w", err)
		return w.err
	}
	w.index[col] = append(w.index[col], e)
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
		pages:      w.pages,
	}
	s.refs.Store(1)
	return s, nil
}

// seal makes a segment file durable: footer, trailer, flush, fsync, directory
// sync.
func (w *SegmentWriter) seal(nrows uint64, sparse []types.Row) error {
	footer := encodeFooter(w.schema, nrows, w.blockRows, w.compressed, w.index, sparse, w.places, w.zones, w.pages)
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
	vfs.FS.SyncDir(filepath.Dir(w.path))
	return nil
}

// Abort closes and removes the partial file (the orderly error path; a crash
// leaves the partial file behind, which Open-side GC removes) and fails every
// later append.
func (w *SegmentWriter) Abort() {
	if w.f != nil {
		w.f.Close()
		vfs.FS.Remove(w.path)
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
	f          vfs.File // nil for a memory segment
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
	pages      []uint32 // page checksums (BlockEntry.page); nil when the footer has no page section
	layout     *Layout  // built on first use (Layout)
	layoutOnce sync.Once
}

// OpenSegment opens and validates an existing segment file.
func OpenSegment(path string) (*Segment, error) {
	f, err := vfs.FS.OpenFile(path, os.O_RDONLY, 0)
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

func readSegmentMeta(f vfs.File, path string) (*Segment, error) {
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

// ErrChecksum is wrapped by every block or page read whose bytes do not match
// their checksum.
var ErrChecksum = errors.New("checksum mismatch")

// ReadBlock reads one encoded block — a pread, or the slice a memory segment
// kept — and verifies it as the one unit it is read as (verify).
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
	if err := s.verify(Unit{col, blk, 0, len(buf)}, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Pages returns how many pages a point read reads block blk of column col by: 0
// when the block is read whole only — a block of one page or less, any block
// of a segment written without page checksums, and any block of a memory
// segment, whose whole read copies nothing.
func (s *Segment) Pages(col, blk int) int {
	if e := s.index[col][blk]; s.f != nil && s.paged(e) {
		return pageCount(e.Len)
	}
	return 0
}

// paged reports whether block e has a checksum per page: it is longer than a
// page, in a segment whose footer has the page section.
func (s *Segment) paged(e BlockEntry) bool { return s.pages != nil && e.Len > pageSize }

// verify checks b, the bytes of unit u: each page's checksum of a paged
// block, else the block's own.
func (s *Segment) verify(u Unit, b []byte) error {
	e := s.index[u.Col][u.Blk]
	if !s.paged(e) {
		if crc32.ChecksumIEEE(b) != e.CRC {
			return fmt.Errorf("storage: %s: col %d blk %d: %w", s.path, u.Col, u.Blk, ErrChecksum)
		}
		return nil
	}
	first := int(e.page) + u.Lo/pageSize
	for p := 0; p < len(b); p += pageSize {
		if crc32.ChecksumIEEE(b[p:min(p+pageSize, len(b))]) != s.pages[first+p/pageSize] {
			return fmt.Errorf("storage: %s: col %d blk %d page %d: %w", s.path, u.Col, u.Blk, (u.Lo+p)/pageSize, ErrChecksum)
		}
	}
	return nil
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
	sectionPages    = 3
)

func encodeFooter(schema *types.Schema, nrows uint64, blockRows int, compressed bool, index [][]BlockEntry, sparse []types.Row, places [][]BlockPlace, zones [][]Zone, pages []uint32) []byte {
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
	if len(pages) > 0 {
		// Every paged block's checksums, in index order: a block's entries
		// follow from its Len, so the section needs no per-block count.
		p := binary.LittleEndian.AppendUint32(nil, uint32(len(pages)))
		for _, col := range index {
			for _, e := range col {
				for _, c := range pages[e.page : e.page+uint32(pageCount(e.Len))] {
					p = binary.LittleEndian.AppendUint32(p, c)
				}
			}
		}
		sections = append(sections, struct {
			tag     byte
			payload []byte
		}{sectionPages, p})
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
		case sectionPages:
			if s.pages, err = decodePages(sr, s.index); err != nil {
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

// decodePages reads the page section and numbers each paged block's first
// page in index. Its count must be the sum of ⌈Len/pageSize⌉ over the blocks
// longer than a page: every such block has exactly its pages, every other
// block none.
func decodePages(r *types.Reader, index [][]BlockEntry) ([]uint32, error) {
	n := r.Count(4)
	next := 0
	for _, col := range index {
		for b := range col {
			col[b].page = uint32(next)
			next += pageCount(col[b].Len)
		}
	}
	if r.Err != nil || n != next {
		return nil, fmt.Errorf("page section holds %d checksums, the blocks have %d pages", n, next)
	}
	pages := make([]uint32, n)
	for i := range pages {
		pages[i] = r.U32()
	}
	return pages, r.Err
}

// --- page checksums ------------------------------------------------------------

// pageSize is the unit a block longer than it is checksummed and point-read
// in.
const pageSize = 4096

// PageSize is the unit a block longer than it is checksummed and point-read
// in.
const PageSize = pageSize

// PageCover is the page-aligned stretch [a, b) of a block that holds its
// bytes [lo, hi): the pages a point read reads for them, short of the
// block's end.
func PageCover(lo, hi int) (a, b int) {
	return lo / pageSize * pageSize, (hi + pageSize - 1) / pageSize * pageSize
}

// PointReads reports whether a point read fetches this segment's blocks a
// verification unit at a time (ReadUnits): it is a file. A memory segment's
// blocks are read whole, which copies nothing.
func (s *Segment) PointReads() bool { return s.f != nil }

// A BlockSpan is where one block lies in its segment's file: bytes
// [Off, Off+Len), block Blk of column Col. Paged blocks have a checksum per
// page, so each of their pages is a verification unit; any other block is one
// unit whole.
type BlockSpan struct {
	Off      int64
	Len      int
	Col, Blk int
	Paged    bool
}

// A Layout is a segment's blocks in file order.
type Layout struct {
	Blocks []BlockSpan // by offset
	at     [][]int32   // per column and physical block: its index in Blocks
}

// Index returns where block blk of column col lies in l.Blocks.
func (l *Layout) Index(col, blk int) int { return int(l.at[col][blk]) }

// Layout returns the segment's blocks in file order, built on first use.
func (s *Segment) Layout() *Layout {
	s.layoutOnce.Do(func() {
		l := &Layout{at: make([][]int32, len(s.index))}
		for c, col := range s.index {
			for b, e := range col {
				l.Blocks = append(l.Blocks, BlockSpan{Off: e.Off, Len: int(e.Len), Col: c, Blk: b, Paged: s.paged(e)})
			}
			l.at[c] = make([]int32, len(col))
		}
		sort.SliceStable(l.Blocks, func(i, j int) bool { return l.Blocks[i].Off < l.Blocks[j].Off })
		for i, b := range l.Blocks {
			l.at[b.Col][b.Blk] = int32(i)
		}
		s.layout = l
	})
	return s.layout
}

// A Unit is bytes [Lo, Hi) of block Blk of column Col that its checksums
// verify by themselves: the whole block, or whole pages of a paged block (the
// last page may be short).
type Unit struct{ Col, Blk, Lo, Hi int }

// ReadUnits reads into buf, with one pread, the file bytes from where the
// first of units starts, and verifies every unit. The units lie in file order
// within those len(buf) bytes and cover every one of them, so no byte read is
// left unverified; bytes of a unit that does not verify are ErrChecksum.
func (s *Segment) ReadUnits(buf []byte, units []Unit) error {
	if len(units) == 0 {
		return nil
	}
	start := s.index[units[0].Col][units[0].Blk].Off + int64(units[0].Lo)
	end, at := start+int64(len(buf)), start
	for _, u := range units {
		e := s.index[u.Col][u.Blk]
		whole := u.Lo == 0 && u.Hi == int(e.Len)
		paged := s.paged(e) && u.Lo%pageSize == 0 && u.Lo < u.Hi && u.Hi <= int(e.Len) && (u.Hi%pageSize == 0 || u.Hi == int(e.Len))
		lo := e.Off + int64(u.Lo)
		if !whole && !paged || lo > at || lo+int64(u.Hi-u.Lo) > end {
			return fmt.Errorf("storage: %s: col %d blk %d bytes [%d, %d) are not a unit in order in [%d, %d)", s.path, u.Col, u.Blk, u.Lo, u.Hi, start, end)
		}
		at = max(at, lo+int64(u.Hi-u.Lo))
	}
	if at != end {
		return fmt.Errorf("storage: %s: units cover [%d, %d) of a read of [%d, %d)", s.path, start, at, start, end)
	}
	if s.f == nil {
		for _, u := range units {
			lo := s.index[u.Col][u.Blk].Off + int64(u.Lo) - start
			copy(buf[lo:], s.mem[u.Col][u.Blk][u.Lo:u.Hi])
		}
	} else if _, err := s.f.ReadAt(buf, start); err != nil {
		return fmt.Errorf("storage: %s: read [%d, %d): %w", s.path, start, end, err)
	}
	for _, u := range units {
		lo := s.index[u.Col][u.Blk].Off + int64(u.Lo) - start
		if err := s.verify(u, buf[lo:][:u.Hi-u.Lo]); err != nil {
			return err
		}
	}
	return nil
}

// pageCount is how many page checksums a block of n bytes has: none when it
// fits in one page.
func pageCount(n uint32) int {
	if n <= pageSize {
		return 0
	}
	return int((n + pageSize - 1) / pageSize)
}

// checksum returns the CRC-32 of a block, and appends its pages' to w.pages
// when it is longer than a page. Each byte is checksummed once: the block's
// CRC is its pages' combined.
func (w *SegmentWriter) checksum(enc []byte) uint32 {
	if len(enc) <= pageSize {
		return crc32.ChecksumIEEE(enc)
	}
	crc := uint32(0)
	for p := 0; p < len(enc); p += pageSize {
		page := enc[p:min(p+pageSize, len(enc))]
		c := crc32.ChecksumIEEE(page)
		w.pages = append(w.pages, c)
		if p == 0 {
			crc = c
		} else {
			crc = crcCombine(crc, c, len(page))
		}
	}
	return crc
}

// crcPoly is the IEEE CRC-32 polynomial, bit-reversed (hash/crc32.IEEE).
const crcPoly = 0xedb88320

// multModP multiplies a and b modulo the CRC polynomial, both reflected.
func multModP(a, b uint32) uint32 {
	p := uint32(0)
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		b = b>>1 ^ crcPoly&-(b&1)
	}
	return p
}

// x2n[k] is x^(2^k) modulo the CRC polynomial, reflected: x^1, then each
// entry the square of the one before (zlib's x2n_table; TestCRCCombine
// checks the recurrence).
var x2n = [32]uint32{
	0x40000000, 0x20000000, 0x08000000, 0x00800000, 0x00008000, 0xedb88320, 0xb1e6b092, 0xa06a2517,
	0xed627dae, 0x88d14467, 0xd7bbfe6a, 0xec447f11, 0x8e7ea170, 0x6427800e, 0x4d47bae0, 0x09fe548f,
	0x83852d0f, 0x30362f1a, 0x7b5a9cc3, 0x31fec169, 0x9fec022a, 0x6c8dedc4, 0x15d6874d, 0x5fde7a4e,
	0xbad90e37, 0x2e4e5eef, 0x4eaba214, 0xa8a472c0, 0x429a969e, 0x148d302a, 0xc40ba6d0, 0xc4e22c3c,
}

// crcCombine is the CRC-32 of a‖b from a's CRC, b's CRC and b's length (the
// combination zlib's crc32_combine computes): a's CRC times x^(8·lenB).
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; lenB != 0; lenB, k = lenB>>1, k+1 {
		if lenB&1 != 0 {
			p = multModP(x2n[k&31], p)
		}
	}
	return multModP(p, crcA) ^ crcB
}
