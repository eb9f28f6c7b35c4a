// Package colstore implements the read-optimized stable table image: each
// column is stored as a sequence of independently encoded blocks (compressed
// or plain), all columns block-aligned by row position, together with a
// sparse min-key index on the sort key (the paper's "Sparse Index") and a
// block device fronting every fetch with a buffer pool that accounts every
// byte read.
//
// Every store is a chain of storage segments read through the device's buffer
// pool: a block is fetched cold — whole, by ReadBlock, into the pool, or for
// the first point read of a file block longer than a page, by the pages its
// rows lie in, around the pool — and charged to the device; later fetches hit
// the pool, and DropCaches makes the next scan cold again.
// Where a segment's bytes live is the segment's business alone. One built
// with a path (NewFileBuilder/NewCheckpointBuilder, or opened via
// FromSegmentChain) preads them from its file, so cold scans do real I/O; one
// built without (NewBuilder/BulkLoad — the paper's simulated-I/O benchmark
// configuration) keeps them in memory and a cold read only accounts bytes.
// Stable IDs (SIDs) are implicit: the value at position i of every column
// belongs to the tuple with SID i.
package colstore

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pdtstore/internal/compress"
	"pdtstore/internal/storage"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// DefaultBlockRows is the default number of values per column block.
const DefaultBlockRows = 8192

// Device is the disk + buffer pool boundary. A fetch of a block the
// (unbounded) pool does not hold is a cold read, charged to the byte and read
// counters; fetches of a block it holds are free, so a benchmark can measure a
// query's cold I/O volume by calling DropCaches and ResetStats first, and its
// hot time by re-running with the pool warm. A pool entry holds the bytes its
// segment's ReadBlock returned, in a written scheme (compress.Upgrade), so
// evicting it really does make the next fetch a ReadBlock again — a pread and
// a CRC check for a file, the CRC check alone for a memory segment.
//
// A point read bypasses the pool on first touch: the first read of a few rows
// of a file block longer than a page since DropCaches (or its segment's
// eviction) fetches and verifies only the pages those rows' bytes lie in
// (Store.rowBlock), charged page bytes and preads, and pools nothing. The
// second such read of the block reads it whole into the pool, so a key read
// again stays warm.
//
// A device is safe for concurrent scanners — the parallel scan engine's
// workers all charge fetches through one device. Pool hits take only a read
// lock, so warm scans scale; cold charges take the write lock once per block
// and stay charge-once under races (two workers fetching the same block cold
// charge one read).
type Device struct {
	mu        sync.RWMutex
	bytesRead uint64
	reads     uint64
	cached    map[devKey][]byte
	pointed   map[devKey]struct{} // blocks point-read by pages once, not pooled since; nil while none

	// Block-skip accounting: blocks a scan proved irrelevant without
	// fetching, split by which structure proved it. Atomic (not under mu)
	// because pruning happens on the plan's hot setup path.
	zoneSkips  atomic.Uint64
	indexSkips atomic.Uint64
}

// devKey identifies a block globally by the segment holding its bytes and
// its physical position there — so a block inherited across checkpoint
// generations keeps one pool entry and stays warm after the generation swap.
type devKey struct {
	seg      *storage.Segment
	col, blk int
}

// NewDevice returns a device with an empty buffer pool.
func NewDevice() *Device {
	return &Device{cached: make(map[devKey][]byte)}
}

// evictSegment drops every pool entry of one segment, and the record of its
// point reads: its next reads are cold, and point reads read pages again.
func (d *Device) evictSegment(seg *storage.Segment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k := range d.cached {
		if k.seg == seg {
			delete(d.cached, k)
		}
	}
	for k := range d.pointed {
		if k.seg == seg {
			delete(d.pointed, k)
		}
	}
}

// charge counts one pread of n bytes that bypasses the pool.
func (d *Device) charge(n int) {
	d.mu.Lock()
	d.bytesRead += uint64(n)
	d.reads++
	d.mu.Unlock()
}

// poolGet returns a block's bytes if resident in the pool.
func (d *Device) poolGet(k devKey) ([]byte, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	b, ok := d.cached[k]
	return b, ok
}

// poolFill inserts a block just read from its segment, charging the cold read
// of the bytes the segment holds for it (b may be their upgrade). A concurrent
// fill of the same block charges only once; both copies are valid.
func (d *Device) poolFill(k devKey, b []byte) {
	d.mu.Lock()
	if _, ok := d.cached[k]; ok {
		d.mu.Unlock()
		return
	}
	d.cached[k] = b
	d.bytesRead += uint64(k.seg.BlockLen(k.col, k.blk))
	d.reads++
	d.mu.Unlock()
}

// DropCaches empties the simulated buffer pool, and forgets which blocks were
// point-read, so the next fetch of every block is cold again.
func (d *Device) DropCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cached = make(map[devKey][]byte)
	d.pointed = nil
}

// firstPointRead records a point read of block k and reports whether it is
// the first since DropCaches or the segment's eviction: the first reads its
// rows' pages, the second the whole block into the pool.
func (d *Device) firstPointRead(k devKey) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.pointed[k]; ok {
		delete(d.pointed, k)
		return false
	}
	if d.pointed == nil {
		d.pointed = make(map[devKey]struct{})
	}
	d.pointed[k] = struct{}{}
	return true
}

// PoolBlocks returns the number of blocks currently resident in the buffer
// pool (for tests and stats: a long-running process that checkpoints should
// see retired images leave the pool, not accumulate one entry per block per
// checkpoint forever).
func (d *Device) PoolBlocks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.cached)
}

// ResetStats zeroes the byte/read and block-skip counters without touching
// the pool.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bytesRead, d.reads = 0, 0
	d.zoneSkips.Store(0)
	d.indexSkips.Store(0)
}

// CountSkips adds to the block-skip counters: blocks a scan's pre-scan
// pruning pass excluded via zone maps and via secondary indexes. The engine
// calls this once per pruned plan.
func (d *Device) CountSkips(zone, index uint64) {
	d.zoneSkips.Add(zone)
	d.indexSkips.Add(index)
}

// SkipStats returns the block-skip counters accumulated since the last
// ResetStats: how many block fetches scans avoided via zone maps and via
// secondary indexes.
func (d *Device) SkipStats() (zone, index uint64) {
	return d.zoneSkips.Load(), d.indexSkips.Load()
}

// Stats returns the bytes and block reads charged since the last ResetStats.
func (d *Device) Stats() (bytesRead, reads uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.bytesRead, d.reads
}

// Store is one table's immutable stable image, read through a segment chain:
// a build without a base (and a whole rewrite) produces a single
// self-contained segment, an incremental checkpoint produces a new segment
// holding only the blocks that changed plus a logical→physical block map
// resolving every unchanged block into an earlier chain member. Readers are
// oblivious — encodedBlock resolves the map, and whether a member is a file
// or memory only the member knows — and chain members are refcounted, shared
// between consecutive generations.
type Store struct {
	schema     *types.Schema
	blockRows  int
	compressed bool
	nrows      uint64
	segs       []*storage.Segment     // segment chain, oldest first
	places     [][]storage.BlockPlace // block map; nil = identity on the single chain member
	sparse     []types.Row
	dev        *Device
	closed     atomic.Bool
	aux        any // opaque per-image sidecar (the secondary-index set); set before sharing
}

// Builder accumulates rows in sort-key order and produces a Store, streaming
// block by block into one new segment — memory (NewBuilder), or a file
// (NewFileBuilder) — optionally on top of a base image whose leading blocks
// it inherits (NewCheckpointBuilder).
//
// Filling a block and flushing it overlap: a full block is handed to one
// goroutine, while the caller fills the other of two row buffers. That
// goroutine encodes the block's columns and computes their zones together
// with up to GOMAXPROCS-1 helpers (encodeBlock), then appends them in column
// order, so the file is the same at any GOMAXPROCS. At most one block is in
// flight; flush, WriteBlock, Finish and Abort join it before they touch the
// writer, and its error becomes the builder's. A builder dropped without
// Finish or Abort strands nothing: the goroutine finishes its block and
// exits, its result channel being buffered.
type Builder struct {
	store    *Store
	segw     *storage.SegmentWriter // nil once Finish or Abort has run
	physBlk  []int                  // blocks appended to segw so far, per column
	pending  *vector.Batch          // the block being filled
	spare    *vector.Batch          // the other buffer: in flight, or idle after join
	inflight chan error             // non-nil while a block is in flight; yields its result
	lastKey  types.Row
	err      error

	// With a base only: the image whose blocks below shiftBlk the build
	// inherits, and the block map under construction. A placement's Seg is a
	// base chain index, or newSegMark for a block written by this build.
	base     *Store
	shiftBlk int
	places   [][]storage.BlockPlace

	// The flush's column work: order is the order columns are claimed in,
	// encs and zones the in-flight block's encoded columns and their zones.
	order []int
	encs  [][]byte
	zones []storage.Zone
}

// newSegMark marks a placement that points into the segment being written;
// Finish rewrites it to the new segment's final chain position.
const newSegMark = ^uint32(0)

// NewBuilder is NewFileBuilder without a path: the image's one segment lives
// in memory, and there is no file whose creation could fail.
func NewBuilder(schema *types.Schema, dev *Device, blockRows int, compressed bool) *Builder {
	b, _ := NewFileBuilder(schema, dev, blockRows, compressed, "")
	return b
}

// NewFileBuilder starts building a store whose flushed blocks stream to a
// segment file at path; Finish seals the footer, fsyncs, and returns a store
// reading lazily through the device. blockRows <= 0 selects DefaultBlockRows.
// The device may be shared across stores (one device per benchmark
// "machine").
func NewFileBuilder(schema *types.Schema, dev *Device, blockRows int, compressed bool, path string) (*Builder, error) {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	if dev == nil {
		dev = NewDevice()
	}
	ncols := schema.NumCols()
	kinds := make([]types.Kind, ncols)
	var order, rest []int // string columns cost the most per value: claimed first
	for i, c := range schema.Cols {
		kinds[i] = c.Kind
		if c.Kind == types.String {
			order = append(order, i)
		} else {
			rest = append(rest, i)
		}
	}
	segw, err := storage.CreateSegment(path, schema, blockRows, compressed)
	if err != nil {
		return nil, err
	}
	return &Builder{
		store:   &Store{schema: schema, blockRows: blockRows, compressed: compressed, dev: dev},
		segw:    segw,
		physBlk: make([]int, ncols),
		pending: vector.NewBatch(kinds, blockRows),
		order:   append(order, rest...),
		encs:    make([][]byte, ncols),
		zones:   make([]storage.Zone, ncols),
	}, nil
}

// NewCheckpointBuilder is NewFileBuilder for the next generation of base, an
// image of either residency (and, again, no path means a memory segment):
// blocks [0, shiftBlk) keep their tuple positions, so their placements and
// sparse keys are inherited from base — WriteBlock replaces the cells an
// in-place modify dirtied — and every row from block shiftBlk on streams
// through Add/AddBatch like any other build, re-blocked, re-encoded and
// re-keyed. Finish renumbers the chain: base members no placement references
// any more fall out (the caller unlinks them after the manifest swap),
// survivors are retained, and the new segment joins last, carrying the footer
// and block map of the whole generation.
//
// With shiftBlk 0 nothing is inherited and the build is a plain one — the one
// case where blockRows and compressed apply; inherited blocks pin the base's
// geometry.
func NewCheckpointBuilder(base *Store, shiftBlk, blockRows int, compressed bool, path string) (*Builder, error) {
	if shiftBlk == 0 {
		return NewFileBuilder(base.schema, base.dev, blockRows, compressed, path)
	}
	if shiftBlk > len(base.sparse) {
		return nil, fmt.Errorf("colstore: cannot inherit %d blocks from a base of %d", shiftBlk, len(base.sparse))
	}
	b, err := NewFileBuilder(base.schema, base.dev, base.blockRows, base.compressed, path)
	if err != nil {
		return nil, err
	}
	b.base, b.shiftBlk = base, shiftBlk
	b.places = make([][]storage.BlockPlace, base.schema.NumCols())
	for c := range b.places {
		col := make([]storage.BlockPlace, shiftBlk)
		for blk := range col {
			si, pb := base.place(c, blk)
			col[blk] = storage.BlockPlace{Seg: uint32(si), Blk: uint32(pb)}
		}
		b.places[c] = col
	}
	b.store.sparse = append([]types.Row(nil), base.sparse[:shiftBlk]...)
	b.store.nrows = min(uint64(shiftBlk)*uint64(base.blockRows), base.nrows)
	// The last inherited block's rows are not at hand, only its first key:
	// the tail's first row must at least sort above that.
	b.lastKey = base.sparse[shiftBlk-1]
	return b, nil
}

// WriteBlock re-encodes one inherited block of one column into the new
// segment, replacing its placement. Positions are stable below the shift
// block, so v holds exactly the block's row count and the block's sparse key
// is unchanged (in-place modifies never touch sort-key columns — a sort-key
// update is a delete+insert, which shifts positions and lands in the tail).
func (b *Builder) WriteBlock(col, blk int, v *vector.Vector) error {
	b.join()
	if b.err == nil && blk >= b.shiftBlk {
		b.err = fmt.Errorf("colstore: WriteBlock(%d) at or past the shift block %d", blk, b.shiftBlk)
	}
	if b.err == nil {
		enc, z := encodeCol(v, b.store.compressed)
		b.places[col][blk], b.err = b.appendBlock(col, enc, z)
	}
	return b.err
}

// Abort discards the build, removing the partial segment file if there is
// one. It is a no-op after Finish.
func (b *Builder) Abort() {
	b.join()
	if b.segw != nil {
		b.segw.Abort()
		b.segw = nil
	}
	if b.err == nil {
		b.err = fmt.Errorf("colstore: builder aborted")
	}
}

// Add appends one row; rows must arrive in strictly ascending sort-key order
// (the sort key is a key, so duplicates are rejected too).
func (b *Builder) Add(row types.Row) error {
	if b.err != nil {
		return b.err
	}
	s := b.store
	if err := s.schema.ValidateRow(row); err != nil {
		b.err = err
		return err
	}
	key := s.schema.KeyOf(row)
	if b.lastKey != nil && types.CompareRows(b.lastKey, key) >= 0 {
		b.err = fmt.Errorf("colstore: rows not in strict sort-key order (%v then %v)", b.lastKey, key)
		return b.err
	}
	b.lastKey = key
	if b.pending.Len() == 0 {
		s.sparse = append(s.sparse, key)
	}
	b.pending.AppendRow(row)
	if b.pending.Len() == s.blockRows {
		b.flush()
	}
	return b.err
}

// AddBatch appends all rows of a schema-aligned batch (the checkpoint fast
// path): whole vector ranges are copied up to each block boundary instead of
// switching per value. Ordering is validated on block boundaries only, plus
// the first row of every batch, which suffices because batch producers are
// merge scans that emit in order.
func (b *Builder) AddBatch(batch *vector.Batch) error {
	if b.err != nil {
		return b.err
	}
	s := b.store
	n := batch.Len()
	for i := 0; i < n; {
		if b.pending.Len() == 0 || i == 0 {
			key := s.schema.KeyOf(batch.Row(i))
			if b.lastKey != nil && types.CompareRows(b.lastKey, key) >= 0 {
				b.err = fmt.Errorf("colstore: batch rows not in sort-key order")
				return b.err
			}
			if b.pending.Len() == 0 {
				s.sparse = append(s.sparse, key)
			}
		}
		take := s.blockRows - b.pending.Len()
		if rest := n - i; take > rest {
			take = rest
		}
		for c, v := range b.pending.Vecs {
			v.AppendRange(batch.Vecs[c], i, i+take)
		}
		i += take
		if b.pending.Len() == s.blockRows {
			b.lastKey = s.schema.KeyOf(b.pending.Row(s.blockRows - 1))
			b.flush()
			if b.err != nil {
				return b.err
			}
		}
	}
	if b.pending.Len() > 0 {
		b.lastKey = s.schema.KeyOf(b.pending.Row(b.pending.Len() - 1))
	}
	return nil
}

// encodeVec encodes one column vector as a block in the store's on-disk
// format.
func encodeVec(v *vector.Vector, compressed bool) []byte {
	switch v.Kind {
	case types.Float64:
		return compress.EncodeFloat64s(v.F, compressed)
	case types.String:
		return compress.EncodeStrings(v.S, compressed)
	case types.Bool:
		return compress.EncodeBools(v.I)
	default:
		return compress.EncodeInt64s(v.I, compressed)
	}
}

// zoneMaxStr caps the string min/max stored in a zone: long strings keep the
// footer small by storing a prefix. A truncated minimum is still a valid
// lower bound outright; a truncated maximum is flagged (MaxSTrunc) so readers
// compare conservatively.
const zoneMaxStr = 64

// zoneOf computes a block's zone-map statistics from its decoded vector —
// the stats ride next to the encoded bytes in whichever segment the block
// lands. Bool and Date columns share the int arm (bools as 0/1).
func zoneOf(v *vector.Vector) storage.Zone {
	if v.Len() == 0 {
		return storage.Zone{}
	}
	switch v.Kind {
	case types.Float64:
		mn, mx := v.F[0], v.F[0]
		for _, f := range v.F[1:] {
			if f < mn {
				mn = f
			}
			if f > mx {
				mx = f
			}
		}
		return storage.Zone{Kind: storage.ZoneFloat, MinF: mn, MaxF: mx}
	case types.String:
		return strZone(v.S)
	default:
		mn, mx := v.I[0], v.I[0]
		for _, i := range v.I[1:] {
			if i < mn {
				mn = i
			}
			if i > mx {
				mx = i
			}
		}
		return storage.Zone{Kind: storage.ZoneInt, MinI: mn, MaxI: mx}
	}
}

// strZone is the zone of a string block holding exactly the values of ss, a
// non-empty slice: its rows, or a packed dictionary's entries.
func strZone(ss []string) storage.Zone {
	mn, mx := ss[0], ss[0]
	for _, s := range ss[1:] {
		if s < mn {
			mn = s
		} else if s > mx {
			mx = s
		}
	}
	z := storage.Zone{Kind: storage.ZoneString, MinS: mn, MaxS: mx}
	if len(z.MinS) > zoneMaxStr {
		z.MinS = z.MinS[:zoneMaxStr]
	}
	if len(z.MaxS) > zoneMaxStr {
		z.MaxS = z.MaxS[:zoneMaxStr]
		z.MaxSTrunc = true
	}
	return z
}

// encodeCol encodes one column block and computes its zone. A PackedDict
// block's dictionary is its exact value set, so the zone's bounds are taken
// over its entries instead of every row.
func encodeCol(v *vector.Vector, compressed bool) ([]byte, storage.Zone) {
	enc := encodeVec(v, compressed)
	if v.Kind == types.String {
		// enc was just written, so it parses; ok is false only for the two
		// offsets layouts, whose zone is taken over the rows.
		if vals, ok, _ := compress.DictValues(enc); ok {
			return enc, strZone(vals)
		}
	}
	return enc, zoneOf(v)
}

// flush starts writing the pending block in the background and swaps in the
// other buffer, after joining the block before it: the caller goes on filling
// while this one is encoded and appended.
func (b *Builder) flush() {
	b.join()
	if b.err != nil {
		return
	}
	full := b.pending
	if b.spare == nil {
		b.spare = vector.NewBatch(full.Kinds(), b.store.blockRows)
	}
	b.pending, b.spare = b.spare, full
	b.store.nrows += uint64(full.Len())
	done := make(chan error, 1)
	b.inflight = done
	go func() { done <- b.writeBlock(full) }()
}

// join waits for the block in flight, if any, keeps its error and makes its
// buffer the idle spare. The segment writer, which writeBlock appends to,
// belongs to the caller again once it returns.
func (b *Builder) join() {
	if b.inflight == nil {
		return
	}
	if err := <-b.inflight; err != nil && b.err == nil {
		b.err = err
	}
	b.inflight = nil
	b.spare.Reset()
}

// writeBlock encodes one block of every column (encodeBlock) and appends
// them, in column order, at the end of the image.
func (b *Builder) writeBlock(block *vector.Batch) error {
	b.encodeBlock(block)
	for c, enc := range b.encs {
		p, err := b.appendBlock(c, enc, b.zones[c])
		if err != nil {
			return err
		}
		if b.base != nil {
			b.places[c] = append(b.places[c], p)
		}
	}
	return nil
}

// encodeBlock encodes every column of block into encs and computes its zone
// into zones. This goroutine and up to GOMAXPROCS-1 helpers claim columns in
// b.order from a shared counter; every helper has returned when it does.
func (b *Builder) encodeBlock(block *vector.Batch) {
	var next atomic.Int32
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(b.order) {
				return
			}
			c := b.order[k]
			b.encs[c], b.zones[c] = encodeCol(block.Vecs[c], b.store.compressed)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(b.order)) - 1 {
		wg.Add(1)
		go func() {
			work()
			wg.Done()
		}()
	}
	work()
	wg.Wait()
}

// appendBlock appends one encoded column block and its zone to the new
// segment, returning where in it the block landed.
func (b *Builder) appendBlock(c int, enc []byte, z storage.Zone) (storage.BlockPlace, error) {
	if err := b.segw.AppendBlock(c, enc, z); err != nil {
		return storage.BlockPlace{}, err
	}
	p := storage.BlockPlace{Seg: newSegMark, Blk: uint32(b.physBlk[c])}
	b.physBlk[c]++
	return p, nil
}

// Finish seals the store. The builder must not be used afterwards. A build
// into a file writes the segment footer and fsyncs: when Finish returns, the
// image is durable.
func (b *Builder) Finish() (*Store, error) {
	b.join()
	if b.err == nil && b.pending.Len() > 0 {
		// Nothing is left to overlap the partial last block with.
		b.store.nrows += uint64(b.pending.Len())
		b.err = b.writeBlock(b.pending)
		b.pending.Reset()
	}
	if b.err != nil {
		b.Abort()
		return nil, b.err
	}
	s := b.store
	chain := b.renumber()
	seg, err := b.segw.Finish(s.nrows, s.sparse)
	if err != nil {
		b.err = err
		b.Abort()
		return nil, err
	}
	b.segw = nil
	// Surviving base members are retained: the base store keeps its own
	// references and releases them independently on Close.
	for _, m := range chain {
		m.Retain()
	}
	s.segs = append(chain, seg)
	return s, nil
}

// renumber closes a with-base build's block map over the generation's final
// chain and hands it to the segment writer: it returns the base members some
// placement still references, in their old relative order, with the new
// segment to come last. A generation that resolves every block into the new
// segment in file order is self-contained and carries no map — a whole
// rewrite is the same flat file whichever way it was asked for.
func (b *Builder) renumber() []*storage.Segment {
	if b.base == nil {
		return nil
	}
	used := make([]bool, len(b.base.segs))
	flat := true
	for _, col := range b.places {
		for blk, p := range col {
			if p.Seg != newSegMark {
				used[p.Seg] = true
			}
			flat = flat && p.Seg == newSegMark && int(p.Blk) == blk
		}
	}
	if flat {
		return nil
	}
	remap := make([]uint32, len(used))
	var chain []*storage.Segment
	for i, u := range used {
		if u {
			remap[i] = uint32(len(chain))
			chain = append(chain, b.base.segs[i])
		}
	}
	for _, col := range b.places {
		for blk, p := range col {
			if p.Seg == newSegMark {
				col[blk].Seg = uint32(len(chain))
			} else {
				col[blk].Seg = remap[p.Seg]
			}
		}
	}
	b.segw.SetPlacements(b.places)
	b.store.places = b.places
	return chain
}

// BulkLoad builds a memory store from pre-sorted rows in one call.
func BulkLoad(schema *types.Schema, dev *Device, blockRows int, compressed bool, rows []types.Row) (*Store, error) {
	b := NewBuilder(schema, dev, blockRows, compressed)
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// FromSegmentChain wraps an opened segment chain (oldest first) in a store:
// blocks are read on demand through the device's buffer pool, with cold bytes
// charged to its counters. The newest segment's block map resolves every logical
// block to its owning chain member; a missing map is only legal for a
// single-segment (self-contained) chain. The store owns one reference to
// each member and releases them via Close.
func FromSegmentChain(segs []*storage.Segment, dev *Device) (*Store, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("colstore: empty segment chain")
	}
	if dev == nil {
		dev = NewDevice()
	}
	newest := segs[len(segs)-1]
	places := newest.Placements()
	if places == nil && len(segs) > 1 {
		return nil, fmt.Errorf("colstore: %d-segment chain but newest segment has no block map", len(segs))
	}
	for c, col := range places {
		for b, p := range col {
			if int(p.Seg) >= len(segs) {
				return nil, fmt.Errorf("colstore: block map (col %d, blk %d) points at chain member %d of %d", c, b, p.Seg, len(segs))
			}
			if int(p.Blk) >= segs[p.Seg].ColBlocks(c) {
				return nil, fmt.Errorf("colstore: block map (col %d, blk %d) points past member %d's column", c, b, p.Seg)
			}
		}
	}
	return &Store{
		schema:     newest.Schema(),
		blockRows:  newest.BlockRows(),
		compressed: newest.Compressed(),
		nrows:      newest.NRows(),
		segs:       append([]*storage.Segment(nil), segs...),
		places:     places,
		sparse:     newest.Sparse(),
		dev:        dev,
	}, nil
}

// Segment returns the newest segment backing this store, the one carrying
// the generation's footer and block map.
func (s *Store) Segment() *storage.Segment { return s.segs[len(s.segs)-1] }

// Segments returns the segment chain backing this store, oldest first. The
// returned slice is the store's own — callers must not mutate it.
func (s *Store) Segments() []*storage.Segment { return s.segs }

// CloneShared returns a new store over the same segment chain, retaining one
// extra reference on every chain member. An empty-delta checkpoint installs
// a clone instead of writing any file: the old and new generation share every
// block, and each store releases its references independently on Close.
func (s *Store) CloneShared() *Store {
	for _, seg := range s.segs {
		seg.Retain()
	}
	return &Store{
		schema:     s.schema,
		blockRows:  s.blockRows,
		compressed: s.compressed,
		nrows:      s.nrows,
		segs:       s.segs,
		places:     s.places,
		sparse:     s.sparse,
		dev:        s.dev,
		aux:        s.aux,
	}
}

// place resolves a logical (column, block) coordinate to (chain member,
// physical block).
func (s *Store) place(col, blk int) (si, pb int) {
	if s.places == nil {
		return 0, blk
	}
	p := s.places[col][blk]
	return int(p.Seg), int(p.Blk)
}

// Zone returns the zone-map statistics of one logical column block, and
// whether usable stats exist for it. The logical coordinate resolves through
// the block map first, so a block inherited across incremental checkpoints
// keeps the stats of the chain member holding its bytes. A pre-zone-map
// segment (or a ZoneNone block) reports ok=false; such blocks are never
// skipped.
func (s *Store) Zone(col, blk int) (storage.Zone, bool) {
	si, pb := s.place(col, blk)
	return s.segs[si].Zone(col, pb)
}

// EncodedBlock returns one logical column block's encoded bytes, charging the
// device like any other fetch. The secondary-index builder reads blocks in
// their encoded form so dictionary and RLE blocks index without a full
// decode.
func (s *Store) EncodedBlock(col, blk int) ([]byte, error) {
	return s.encodedBlock(col, blk)
}

// SetAux attaches an opaque per-image sidecar to the store — the secondary
// index set rides here, built by the layers above (colstore cannot import
// them). It must be called before the store is shared between goroutines;
// CloneShared carries the sidecar to the clone.
func (s *Store) SetAux(aux any) { s.aux = aux }

// Aux returns the sidecar attached by SetAux, or nil.
func (s *Store) Aux() any { return s.aux }

// Close releases the store's reference on every chain member (idempotent).
// The member that hits refcount zero is closed and its buffer-pool entries
// evicted — members still shared with a newer generation or a clone stay
// open and warm. The store must not be read afterwards.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	for _, seg := range s.segs {
		if seg.Release() {
			// Evict, then close: a stale hit must not outlive the file.
			s.dev.evictSegment(seg)
			if e := seg.Close(); e != nil && err == nil {
				err = e
			}
		}
	}
	return err
}

// Closed reports whether Close has run.
func (s *Store) Closed() bool { return s.closed.Load() }

// BlockRefCounts returns, per chain member (oldest first), how many logical
// (column, block) cells of this generation's image resolve into that member —
// its live-block count. A member's dead blocks are its TotalBlocks() minus
// this.
func (s *Store) BlockRefCounts() []int {
	counts := make([]int, len(s.segs))
	if s.places == nil {
		counts[0] = s.schema.NumCols() * s.NumBlocks()
		return counts
	}
	for _, col := range s.places {
		for _, p := range col {
			counts[p.Seg]++
		}
	}
	return counts
}

// NRows returns the number of stable tuples.
func (s *Store) NRows() uint64 { return s.nrows }

// BlockRows returns the number of rows per block.
func (s *Store) BlockRows() int { return s.blockRows }

// Compressed reports whether blocks were compressed at load time.
func (s *Store) Compressed() bool { return s.compressed }

// Device returns the block device this store charges reads to.
func (s *Store) Device() *Device { return s.dev }

// Evict removes the store's blocks from its device's buffer pool, releasing
// the per-block map entries a retired image would otherwise leak across
// checkpoints. The store stays fully readable — its next fetches are simply
// cold again — so evicting is always safe; it is called when a checkpoint
// retires an image and its last reader finishes.
func (s *Store) Evict() {
	for _, seg := range s.segs {
		s.dev.evictSegment(seg)
	}
}

// NumBlocks returns the per-column logical block count: the sparse index
// holds one key per block.
func (s *Store) NumBlocks() int { return len(s.sparse) }

// EncodedSize returns the on-disk size in bytes of the given column, or of
// the whole table when col is negative.
func (s *Store) EncodedSize(col int) uint64 {
	var total uint64
	nb := s.NumBlocks()
	for c := 0; c < s.schema.NumCols(); c++ {
		if col >= 0 && c != col {
			continue
		}
		for blk := 0; blk < nb; blk++ {
			si, pb := s.place(c, blk)
			total += uint64(s.segs[si].BlockLen(c, pb))
		}
	}
	return total
}

// comparePrefix orders a (possibly partial, prefix-of-sort-key) key against
// a block's first-row key, comparing only the columns present in key.
func comparePrefix(key, blockKey types.Row) int {
	n := len(key)
	if len(blockKey) < n {
		n = len(blockKey)
	}
	for i := 0; i < n; i++ {
		if c := types.Compare(key[i], blockKey[i]); c != 0 {
			return c
		}
	}
	return 0
}

// SIDRange returns the half-open stable-ID range [from, to) of blocks whose
// keys may fall within [loKey, hiKey]. Either bound may be nil (unbounded)
// or a prefix of the sort key. The range is conservative: it may include a
// leading/trailing partial block, never excludes a qualifying tuple.
func (s *Store) SIDRange(loKey, hiKey types.Row) (from, to uint64) {
	nb := s.NumBlocks()
	if nb == 0 {
		return 0, 0
	}
	first, last := 0, nb-1
	if loKey != nil {
		// First block that could contain loKey: the last block whose first
		// key is strictly below loKey. A block whose first key prefix-equals
		// loKey does not exclude its predecessor — with a prefix bound, the
		// predecessor's tail can still hold prefix-equal keys.
		lo, hi := 0, nb-1
		first = 0
		for lo <= hi {
			mid := (lo + hi) / 2
			if comparePrefix(loKey, s.sparse[mid]) > 0 {
				first = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
	}
	if hiKey != nil {
		// Last block that could contain hiKey: the last block whose first
		// key is <= hiKey.
		lo, hi := 0, nb-1
		last = 0
		found := false
		for lo <= hi {
			mid := (lo + hi) / 2
			if comparePrefix(hiKey, s.sparse[mid]) >= 0 {
				last = mid
				found = true
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if !found {
			// hiKey sorts before the first block's first key: only inserts
			// in front of the table can match; empty stable range.
			return 0, 0
		}
	}
	if last < first {
		return 0, 0
	}
	from = uint64(first) * uint64(s.blockRows)
	to = uint64(last+1) * uint64(s.blockRows)
	if to > s.nrows {
		to = s.nrows
	}
	return from, to
}

// LowerBound returns the SID of the first stable tuple whose sort key is >=
// key (NRows when every key is smaller). key is the full sort key or a prefix
// of it. The sparse index names the one block that can hold the boundary; of
// that block only the sort-key columns are searched, leading column first, and
// each later key column only over the rows still tied on the columns before
// it. Int key columns are searched in their encoded block
// (compress.SearchInt64s: a binary search on plain and ForInt blocks, a run
// walk on RLE), other kinds decode the tied rows. A full key equal to a
// block's first key resolves from the sparse index alone, without touching
// any block.
func (s *Store) LowerBound(key types.Row) (uint64, error) {
	key = key[:min(len(key), len(s.schema.SortKey))]
	// b: first block whose first key is >= key; the boundary lies in b-1.
	b := sort.Search(len(s.sparse), func(i int) bool { return comparePrefix(key, s.sparse[i]) <= 0 })
	if b == 0 {
		return 0, nil
	}
	start := uint64(b) * uint64(s.blockRows)
	if b < len(s.sparse) && len(key) == len(s.schema.SortKey) && comparePrefix(key, s.sparse[b]) == 0 {
		return start, nil
	}
	blk := b - 1
	// [lo, hi): the block's rows (as block offsets) equal to key on every
	// column searched so far; within them the next key column is sorted.
	lo, hi := 0, s.blockRows
	if start > s.nrows {
		hi -= int(start - s.nrows)
	}
	var v *vector.Vector
	for i, want := range key {
		col := s.schema.SortKey[i]
		var ge, gt int
		switch kind := s.schema.Cols[col].Kind; kind {
		case types.Int64, types.Date:
			enc, err := s.encodedBlock(col, blk)
			if err == nil {
				ge, gt, err = compress.SearchInt64s(enc, lo, hi, want.I)
			}
			if err != nil {
				return 0, fmt.Errorf("colstore: column %d block %d: %w", col, blk, err)
			}
		default:
			if v == nil || v.Kind != kind {
				v = vector.New(kind, hi-lo)
			}
			if err := s.decodeWindowInto(col, blk, lo, hi-lo, v); err != nil {
				return 0, err
			}
			ge = lo + sort.Search(hi-lo, func(r int) bool { return types.Compare(v.Get(r), want) >= 0 })
			gt = ge + sort.Search(hi-ge, func(r int) bool { return types.Compare(v.Get(ge-lo+r), want) > 0 })
		}
		if ge == gt {
			return uint64(blk*s.blockRows + ge), nil
		}
		lo, hi = ge, gt
	}
	return uint64(blk*s.blockRows + lo), nil
}

// encodedBlock returns one column block's encoded bytes, charging the device
// for a cold fetch: the logical coordinate resolves through the block map,
// then the owning chain member reads the block whole unless the buffer pool
// already holds it. A point read of a few rows fetches through rowBlock
// instead, which may read only their pages. Pool keys are per segment, so
// blocks inherited across checkpoint generations stay warm through the swap.
func (s *Store) encodedBlock(col, blk int) ([]byte, error) {
	k := s.key(col, blk)
	if b, ok := s.dev.poolGet(k); ok {
		return b, nil
	}
	return s.fill(k, blk)
}

// key is the pool key of a logical block: its chain member and physical
// block.
func (s *Store) key(col, blk int) devKey {
	si, pb := s.place(col, blk)
	return devKey{s.segs[si], col, pb}
}

// fill reads block k (logical block blk) whole into the pool. This is where
// block bytes enter the pool: a block of a retired scheme is upgraded here,
// so every caller sees a written one.
func (s *Store) fill(k devKey, blk int) ([]byte, error) {
	raw, err := k.seg.ReadBlock(k.col, k.blk)
	if err != nil {
		return nil, err
	}
	b, err := compress.Upgrade(raw)
	if err != nil {
		return nil, fmt.Errorf("colstore: column %d block %d: %w", k.col, blk, err)
	}
	s.dev.poolFill(k, b)
	return b, nil
}

// pageBufs recycles the block-length buffers point reads fetch pages into.
// No decoded value aliases one: the decoders copy every string's bytes.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// rowBlock returns the bytes of logical block blk of column col for a decode
// of spans (compress.Decode*Spans). A block the pool holds is returned as it
// is. The first point read of a cold file block longer than a page since
// DropCaches or its segment's eviction — spans over less than 1/Pages of its
// rows — reads the pages its rows' bytes lie in (compress.RowExtent, stage by
// stage) into a recycled buffer, charged to the device and not pooled: the
// caller hands buf back (putPages) once the decode is done. Any other cold
// read fills the pool.
func (s *Store) rowBlock(col, blk int, spans []compress.Span) (enc []byte, buf *[]byte, err error) {
	k := s.key(col, blk)
	if b, ok := s.dev.poolGet(k); ok {
		return b, nil, nil
	}
	np, last := k.seg.Pages(col, k.blk), spans[len(spans)-1]
	if np == 0 || (last.Row+last.N-spans[0].Row)*np >= s.blockRows || !s.dev.firstPointRead(k) {
		b, err := s.fill(k, blk)
		return b, nil, err
	}
	buf = pageBufs.Get().(*[]byte)
	n := k.seg.BlockLen(col, k.blk)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	enc = (*buf)[:n]
	var extBuf [8]compress.Extent
	var readBuf [8][2]int
	read := readBuf[:0]
	ext, more := append(extBuf[:0], compress.Extent{Hi: 1}), true // the first page: the block's header
	for stage := 0; ; stage++ {
		if read, err = s.readPages(k, enc, ext, read); err != nil || !more {
			break
		}
		ext, more = compress.RowExtent(enc, spans, stage, extBuf[:0])
	}
	if err == nil {
		enc, err = compress.Upgrade(enc) // a block of a retired scheme is read whole
	}
	if err != nil {
		putPages(buf)
		return nil, nil, fmt.Errorf("colstore: column %d block %d: %w", col, blk, err)
	}
	return enc, buf, nil
}

// readPages reads into enc, block k's bytes, the pages that hold the ascending
// extents and lie outside read — the ascending stretches of enc read so far —
// with one ReadPages per stretch of them, charging each, and returns read
// with those stretches added.
func (s *Store) readPages(k devKey, enc []byte, ext []compress.Extent, read [][2]int) ([][2]int, error) {
	for i := 0; i < len(ext); {
		a, b := storage.PageCover(ext[i].Lo, ext[i].Hi)
		for i++; i < len(ext); i++ { // the extents whose pages touch or overlap
			ea, eb := storage.PageCover(ext[i].Lo, ext[i].Hi)
			if ea > b {
				break
			}
			b = max(b, eb)
		}
		b = min(b, len(enc))
		for r := 0; a < b; r++ {
			hi := b // [a, hi): the next stretch of [a, b) not read
			if r < len(read) {
				hi = min(hi, read[r][0])
			}
			if a < hi {
				got, err := k.seg.ReadPages(k.col, k.blk, enc, a, hi)
				if err != nil {
					return read, err
				}
				s.dev.charge(got)
				read = slices.Insert(read, r, [2]int{a, hi})
				r++
			}
			if r == len(read) {
				break
			}
			a = max(a, read[r][1])
		}
	}
	return read, nil
}

// putPages hands a point read's buffer back, if there is one.
func putPages(buf *[]byte) {
	if buf != nil {
		pageBufs.Put(buf)
	}
}

// Prefetch charges the cold read of every block of the given columns
// overlapping SIDs [from, to) — the sequential readahead of a scan about to
// visit that range. Blocks already resident are untouched; cold ones are
// fetched into the buffer pool. A
// parallel scan worker prefetches its morsel on open, so the I/O of
// concurrent morsels overlaps like queued readahead instead of serializing
// behind ordered batch delivery.
func (s *Store) Prefetch(cols []int, from, to uint64) error {
	if from >= to || s.nrows == 0 {
		return nil
	}
	if to > s.nrows {
		to = s.nrows
	}
	b0 := int(from) / s.blockRows
	b1 := int(to-1) / s.blockRows
	for _, c := range cols {
		for blk := b0; blk <= b1; blk++ {
			if _, err := s.encodedBlock(c, blk); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeWindowInto fetches (charging the device) and decodes the n values of
// one column block starting at value index skip into v — one span — reusing
// v's backing arrays. Only the window is materialized: a scan decodes its
// share of the block, a point probe the few rows it reads, and a probe of a
// cold block may fetch only their pages (rowBlock).
func (s *Store) decodeWindowInto(col, blk, skip, n int, v *vector.Vector) error {
	span := []compress.Span{{Row: skip, N: n}}
	enc, buf, err := s.rowBlock(col, blk, span)
	if err != nil {
		return err
	}
	v.Reset()
	v.Extend(n)
	err = decodeSpans(enc, span, v)
	putPages(buf)
	if err != nil {
		return fmt.Errorf("colstore: column %d block %d: %w", col, blk, err)
	}
	return nil
}

// decodeSpans decodes the rows of the spans of an encoded block of v's kind
// into v at the spans' positions.
func decodeSpans(enc []byte, spans []compress.Span, v *vector.Vector) error {
	switch v.Kind {
	case types.Float64:
		return compress.DecodeFloat64sSpans(enc, spans, v.F)
	case types.String:
		return compress.DecodeStringsSpans(enc, spans, v.S)
	case types.Bool:
		return compress.DecodeBoolsSpans(enc, spans, v.I)
	default:
		return compress.DecodeInt64sSpans(enc, spans, v.I)
	}
}

// Scanner iterates a SID range of the store, producing schema-typed batches
// for a column subset. It is the bottom of every positional read pipeline
// (pdt.Source): the merges stacked above it pass the consumer's batch down,
// and SelectRuns is the one place a stable value is written — Next is its
// one-run case without a filter.
type Scanner struct {
	store *Store
	cols  []int
	sid   uint64 // next SID to produce
	end   uint64
	// decoded window per requested column: the values at SIDs [winLo, winHi),
	// one block's rows from where the scan entered it up to the block's (or
	// the scan's) end; empty until a read without a filter
	bufs         []*vector.Vector
	winLo, winHi uint64
	pieces       []compress.Span // the current block's share of SelectRuns' runs
	sel          *selectState    // the filters' state; nil until the first filtered read
	next         nextState       // Next's one run and empty chain
}

// nextState is what Next hands SelectRuns.
type nextState struct {
	one [1]vector.Run
	all vector.Chain
}

// selectState is what a filtered SelectRuns keeps across calls: the current
// block's encoded bytes per requested column, fetched on first use, and the
// first filter's survivors over the scan's window of its block [lo, hi), as
// offsets from lo. The rest is one call's scratch, reused.
type selectState struct {
	blk      int
	enc      [][]byte
	first    []uint32
	at       int // first[at:] lie at or after the scan position
	lo, hi   uint64
	cand     vector.Selection // a call's rows still selected, numbered from its first piece's block row
	win      []*vector.Vector // per slot: a later filter's column at the call's rows
	read     []uint8          // per slot: inWin, or inOut once written at pos
	rows     []uint32         // the call's rows the outputs are read at: survivors and kept rows
	pos      vector.Selection // and their batch positions
	fpos     []uint32         // kept positions in the pieces
	frows    []uint32         // and their rows
	gathered []uint64         // per column: values gathered or decoded so far (read by tests)
}

// How far a call has read a slot: into its window vector, or into the batch
// at every position of selectState.pos.
const (
	inWin uint8 = 1 + iota
	inOut
)

// NewScanner returns a scanner over SIDs [from, to) producing the given
// columns. to is clamped to the table size.
func (s *Store) NewScanner(cols []int, from, to uint64) *Scanner {
	if to > s.nrows {
		to = s.nrows
	}
	if from > to {
		from = to
	}
	return &Scanner{
		store: s,
		cols:  append([]int(nil), cols...),
		sid:   from,
		end:   to,
		bufs:  make([]*vector.Vector, len(cols)),
	}
}

// Next appends up to max rows to out (one vector per requested column, plus
// nothing else) and returns the number appended; 0 means the range is done.
// out's vectors must match the requested columns' kinds. It is SelectRuns
// over one run at the batch's end, without a filter.
func (sc *Scanner) Next(out *vector.Batch, max int) (int, error) {
	n := min(max, sc.SizeHint())
	if n <= 0 {
		return 0, nil
	}
	nx := &sc.next
	nx.one[0] = vector.Run{N: n, At: out.Len()}
	nx.all.Outputs = len(sc.cols)
	out.Extend(n)
	return n, sc.SelectRuns(out, nx.one[:], nil, &nx.all, nil)
}

// SizeHint returns exactly how many rows remain in the scanner's SID range.
func (sc *Scanner) SizeHint() int { return int(sc.end - sc.sid) }

// SelectRuns reads the runs a merge passes through (pdt.Source); a bare scan
// is its one-run case. out's vectors already reach every position the runs
// name. Each run passes over Skip rows and places the next N at its batch
// positions. keep lists the positions the caller decides itself: a row at
// one of them is written in every slot and never filtered. sel (reset first)
// gets every position of keep and those of the other rows that pass every
// filter of chain, where every output slot (chain.Outputs) is written; it may
// be nil when chain has no filter. Values anywhere else are unspecified.
//
// The chain runs on encoded blocks, and a value is decoded only where some
// filter or the consumer reads it. Entering a block, the first filter selects
// over the scan's window of it in the encoded domain (compress.Select*); each
// call takes that filter's survivors in the block's share of its runs,
// gathers each later filter's column at the rows still selected and filters
// it, maps the rows that survive to batch positions in one forward walk over
// them, the share's pieces and the kept positions, and gathers the output
// columns there (compress.Gather*At) — or, where the rows still selected are
// most of the share's rows, decodes every row of it (compress.Decode*Spans).
// A block's bytes are read once per call, however many runs cross it; a
// column only the first filter reads is never decoded, and a block whose
// rows all fail it fetches no other column unless a kept row lies in it.
// Without a filter every row is read: entering a block decodes the scan's
// window of it once, and each call copies its share.
func (sc *Scanner) SelectRuns(out *vector.Batch, runs []vector.Run, keep []uint32, chain *vector.Chain, sel *vector.Selection) error {
	if sel != nil {
		sel.Reset()
	}
	br := uint64(sc.store.blockRows)
	ki := 0 // keep[ki:] are not in sel yet
	for ri, placed, skipped := 0, 0, false; ri < len(runs); {
		if !skipped {
			if uint64(runs[ri].Skip) > sc.end-sc.sid {
				return fmt.Errorf("colstore: a run skips past the scan's end")
			}
			sc.sid += uint64(runs[ri].Skip)
			skipped = true
		}
		if placed == runs[ri].N {
			ri, placed, skipped = ri+1, 0, false
			continue
		}
		if sc.sid >= sc.end {
			return fmt.Errorf("colstore: a run reads past the scan's end")
		}
		// The block holding the scan position, and the share of this run and
		// of those after it that lies inside it.
		blk := sc.sid / br
		hi := min((blk+1)*br, sc.end)
		sc.pieces = sc.pieces[:0]
		total := 0
		for {
			r := runs[ri]
			if k := min(r.N-placed, int(hi-sc.sid)); k > 0 {
				sc.pieces = append(sc.pieces, compress.Span{Row: int(sc.sid - blk*br), At: r.At + placed, N: k})
				sc.sid += uint64(k)
				placed += k
				total += k
			}
			if placed < r.N || sc.sid == hi {
				break
			}
			ri, placed, skipped = ri+1, 0, false
			if ri == len(runs) || sc.sid+uint64(runs[ri].Skip) >= hi {
				break
			}
			sc.sid += uint64(runs[ri].Skip)
			skipped = true
		}
		var err error
		if ki, err = sc.selectIn(out, int(blk), hi, total, keep, ki, chain, sel); err != nil {
			return err
		}
	}
	if sel != nil {
		sel.AppendShifted(keep[ki:], 0)
	}
	return nil
}

// selectIn is SelectRuns over one block: the pieces of sc.pieces, total rows
// of them, in the scan's window of block blk ending at hi, with keep[ki:]
// still to place. It adds to sel the block's survivors and the kept positions
// up to its last piece's end, and returns where keep continues.
func (sc *Scanner) selectIn(out *vector.Batch, blk int, hi uint64, total int, keep []uint32, ki int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	if len(chain.Filters) == 0 {
		return sc.copyIn(out, blk, hi, keep, ki, sel)
	}
	s, st, pieces := sc.store, sc.sel, sc.pieces
	if st == nil {
		n := len(sc.cols)
		st = &selectState{blk: -1, enc: make([][]byte, n), win: make([]*vector.Vector, n),
			read: make([]uint8, n), gathered: make([]uint64, n)}
		sc.sel = st
	}
	blk0 := uint64(blk * s.blockRows)
	if start := blk0 + uint64(pieces[0].Row); start >= st.hi {
		f := chain.Filters[0]
		enc, err := sc.block(f.Slot, blk)
		if err == nil {
			st.first, err = selectBlock(s.schema.Cols[sc.cols[f.Slot]].Kind, enc, pieces[0].Row, int(hi-start), f.Pred, st.first[:0])
		}
		if err != nil {
			return ki, fmt.Errorf("colstore: column %d block %d: %w", sc.cols[f.Slot], blk, err)
		}
		st.lo, st.hi, st.at = start, hi, 0
	}
	// The chain runs on the first filter's survivors in the pieces' span,
	// numbered from the first piece's block row r0; those a skip or a delete
	// passed over drop out in the co-walk below.
	r0, last := uint32(pieces[0].Row), pieces[len(pieces)-1]
	span, d0 := uint32(last.Row+last.N)-r0, r0-uint32(st.lo-blk0) // d0: r0 as an offset of st.first's
	a := st.at + vector.Search(st.first[st.at:], d0)
	st.at = a + vector.Search(st.first[a:], d0+span)
	cand := &st.cand
	cand.Reset()
	cand.AppendShifted(st.first[a:st.at], -d0)
	clear(st.read)
	for _, f := range chain.Filters[1:] {
		if cand.Len() == 0 {
			break
		}
		if st.read[f.Slot] == 0 {
			if err := sc.window(f.Slot, blk, r0, int(span), cand.Indexes()); err != nil {
				return ki, err
			}
		}
		cand.Filter(st.win[f.Slot], f.Pred)
	}
	// One forward co-walk over the survivors, the pieces and the kept
	// positions maps the survivors to batch positions: a piece's stretch of
	// them is shifted by its offset and split where a kept row lies (upTo
	// measures a stretch without a gap by count). Unless the survivors are
	// most of the pieces' rows, which are then decoded whole, rows and pos
	// list where the outputs are read, kept rows included.
	surv, dense := cand.Indexes(), 4*cand.Len() >= 3*total
	st.rows, st.fpos, st.frows = st.rows[:0], st.fpos[:0], st.frows[:0]
	st.pos.Reset()
	c, kj := 0, ki
	for _, p := range pieces {
		from := uint32(p.Row) - r0
		shift, end := uint32(p.At)-from, uint32(p.At+p.N)
		c = upTo(surv, c, from)
		b := upTo(surv, c, from+uint32(p.N))
		for ; kj < len(keep) && keep[kj] < end; kj++ {
			k := keep[kj]
			if k < uint32(p.At) {
				sel.Append(k) // a row the caller writes between pieces
				continue
			}
			f := k - shift // the kept row, as the call numbers it
			d := upTo(surv[:b], c, f)
			st.take(sel, surv[c:d], shift, dense)
			if c = d; c < b && surv[c] == f {
				c++ // a kept row is not filtered
			}
			st.fpos, st.frows = append(st.fpos, k), append(st.frows, f)
			st.take(sel, st.frows[len(st.frows)-1:], shift, dense)
		}
		st.take(sel, surv[c:b], shift, dense)
		c = b
	}
	// The outputs are gathered at rows, or copied out of a filter's window
	// vector; the kept rows get every slot not yet written at them.
	for slot := range sc.cols {
		var err error
		switch {
		case slot >= chain.Outputs || !dense && len(st.rows) == 0:
		case dense:
			st.read[slot], err = inOut, sc.decode(slot, blk, pieces, total, out.Vecs[slot])
		case st.read[slot] == inWin:
			scatter(out.Vecs[slot], st.pos.Indexes(), st.win[slot], st.rows)
		default:
			st.read[slot], err = inOut, sc.gather(slot, blk, int(r0), st.rows, st.pos.Indexes(), out.Vecs[slot])
		}
		if err == nil && len(st.fpos) > 0 && st.read[slot] != inOut {
			err = sc.gather(slot, blk, int(r0), st.frows, st.fpos, out.Vecs[slot])
		}
		if err != nil {
			return ki, err
		}
	}
	return kj, nil
}

// take adds the rows s of one piece to sel at batch positions s+shift, and
// unless dense to the rows the outputs are read at.
func (st *selectState) take(sel *vector.Selection, s []uint32, shift uint32, dense bool) {
	sel.AppendShifted(s, shift)
	if !dense {
		st.rows = append(st.rows, s...)
		st.pos.AppendShifted(s, shift)
	}
}

// window reads column slot of block blk at the ascending rows offs (< span)
// from block row r0 into the slot's window vector at the same indexes:
// gathered, or decoded over their span where they are most of it.
func (sc *Scanner) window(slot, blk int, r0 uint32, span int, offs []uint32) error {
	st := sc.sel
	st.read[slot] = inWin
	if st.win[slot] == nil {
		st.win[slot] = vector.New(sc.store.schema.Cols[sc.cols[slot]].Kind, span)
	}
	if v := st.win[slot]; v.Len() < span {
		v.Extend(span - v.Len())
	}
	if n := int(offs[len(offs)-1]-offs[0]) + 1; 4*len(offs) >= 3*n {
		return sc.decode(slot, blk, []compress.Span{{Row: int(r0 + offs[0]), At: int(offs[0]), N: n}}, n, st.win[slot])
	}
	return sc.gather(slot, blk, int(r0), offs, offs, st.win[slot])
}

// upTo returns where the ascending, distinct s[a:] reach x: the first c >= a
// with s[c] >= x, or len(s). When every row left lies below x, or s runs
// without a gap from a to x, that is taken by count; otherwise the rows are
// passed one by one.
func upTo(s []uint32, a int, x uint32) int {
	switch {
	case a == len(s) || s[a] >= x:
		return a
	case s[len(s)-1] < x:
		return len(s)
	}
	if c := a + int(x-s[a]); c <= len(s) && s[c-1] == x-1 {
		return c
	}
	for s[a] < x {
		a++
	}
	return a
}

// scatter copies the values of src at rows into dst at the positions pos.
func scatter(dst *vector.Vector, pos []uint32, src *vector.Vector, rows []uint32) {
	pos = pos[:len(rows)]
	switch dst.Kind {
	case types.Float64:
		for k, r := range rows {
			dst.F[pos[k]] = src.F[r]
		}
	case types.String:
		for k, r := range rows {
			dst.S[pos[k]] = src.S[r]
		}
	default:
		for k, r := range rows {
			dst.I[pos[k]] = src.I[r]
		}
	}
}

// block returns the encoded bytes of block blk of the scanner's column slot,
// fetching them once per block.
func (sc *Scanner) block(slot, blk int) ([]byte, error) {
	st := sc.sel
	if st.blk != blk {
		clear(st.enc)
		st.blk = blk
	}
	if st.enc[slot] == nil {
		b, err := sc.store.encodedBlock(sc.cols[slot], blk)
		if err != nil {
			return nil, err
		}
		st.enc[slot] = b
	}
	return st.enc[slot], nil
}

// copyIn is selectIn without a filter. Entering the block decodes exactly the
// rows of it the scan will read: from where the scan entered it (non-zero in
// the scan's first block, or after a skip landed inside this one) to the
// block's end or the scan's, whichever comes first — a full scan decodes
// whole blocks, a point probe the few rows of its window. A call that reads
// the rest of that window decodes its pieces straight to their batch
// positions; one that leaves rows for a later call decodes the window into
// the window buffers, and each piece is then copied to its batch positions.
// sel, unless nil, gets every piece's positions and the kept positions
// between them.
func (sc *Scanner) copyIn(out *vector.Batch, blk int, hi uint64, keep []uint32, ki int, sel *vector.Selection) (int, error) {
	s, pieces := sc.store, sc.pieces
	blk0 := uint64(blk * s.blockRows)
	direct := false
	if start := blk0 + uint64(pieces[0].Row); start >= sc.winHi {
		last := pieces[len(pieces)-1]
		direct = blk0+uint64(last.Row+last.N) == hi
		for i, c := range sc.cols {
			if direct {
				enc, buf, err := s.rowBlock(c, blk, pieces)
				if err == nil {
					err = decodeSpans(enc, pieces, out.Vecs[i])
					putPages(buf)
				}
				if err != nil {
					return ki, fmt.Errorf("colstore: column %d block %d: %w", c, blk, err)
				}
				continue
			}
			if sc.bufs[i] == nil {
				// Room for the largest window this scan will decode.
				sc.bufs[i] = vector.New(s.schema.Cols[c].Kind, min(int(sc.end-start), s.blockRows))
			}
			if err := s.decodeWindowInto(c, blk, pieces[0].Row, int(hi-start), sc.bufs[i]); err != nil {
				return ki, err
			}
		}
		if !direct {
			sc.winLo, sc.winHi = start, hi
		}
	}
	for _, p := range pieces {
		if !direct {
			off := int(blk0 + uint64(p.Row) - sc.winLo)
			for i, b := range sc.bufs {
				copyAt(out.Vecs[i], p.At, b, off, p.N)
			}
		}
		if sel == nil {
			continue
		}
		for ; ki < len(keep) && int(keep[ki]) < p.At+p.N; ki++ {
			if int(keep[ki]) < p.At {
				sel.Append(keep[ki])
			}
		}
		for at := p.At; at < p.At+p.N; at++ {
			sel.Append(uint32(at))
		}
	}
	return ki, nil
}

// copyAt copies the n values of src from from into dst at position at.
func copyAt(dst *vector.Vector, at int, src *vector.Vector, from, n int) {
	switch dst.Kind {
	case types.Float64:
		copy(dst.F[at:at+n], src.F[from:])
	case types.String:
		copy(dst.S[at:at+n], src.S[from:])
	default:
		copy(dst.I[at:at+n], src.I[from:])
	}
}

// decode decodes column slot's values at every row of the spans of block
// blk, total of them, into v at the spans' batch positions.
func (sc *Scanner) decode(slot, blk int, spans []compress.Span, total int, v *vector.Vector) error {
	enc, err := sc.block(slot, blk)
	if err == nil {
		err = decodeSpans(enc, spans, v)
	}
	if err != nil {
		return fmt.Errorf("colstore: column %d block %d: %w", sc.cols[slot], blk, err)
	}
	sc.sel.gathered[slot] += uint64(total)
	return nil
}

// gather decodes column slot's values at rows base+rows of block blk, which
// ascend, into v at the batch positions pos.
func (sc *Scanner) gather(slot, blk, base int, rows, pos []uint32, v *vector.Vector) error {
	enc, err := sc.block(slot, blk)
	if err == nil {
		switch v.Kind {
		case types.Float64:
			err = compress.GatherFloat64sAt(enc, base, rows, pos, v.F)
		case types.String:
			err = compress.GatherStringsAt(enc, base, rows, pos, v.S)
		case types.Bool:
			err = compress.GatherBoolsAt(enc, base, rows, pos, v.I)
		default:
			err = compress.GatherInt64sAt(enc, base, rows, pos, v.I)
		}
	}
	if err != nil {
		return fmt.Errorf("colstore: column %d block %d: %w", sc.cols[slot], blk, err)
	}
	sc.sel.gathered[slot] += uint64(len(pos))
	return nil
}

// selectBlock evaluates p over n values of an encoded block of the given
// column kind from index skip, appending the offsets it keeps to out.
func selectBlock(kind types.Kind, enc []byte, skip, n int, p vector.Pred, out []uint32) ([]uint32, error) {
	switch kind {
	case types.Float64:
		return compress.SelectFloat64s(enc, skip, n, p, out)
	case types.String:
		return compress.SelectStrings(enc, skip, n, p, out)
	case types.Bool:
		return compress.SelectBools(enc, skip, n, p, out)
	default:
		return compress.SelectInt64s(enc, skip, n, p, out)
	}
}

// Schema returns the store's schema.
func (s *Store) Schema() *types.Schema { return s.schema }
