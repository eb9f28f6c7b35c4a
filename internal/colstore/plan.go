package colstore

// Point reads. The sparse index names the one block a key can lie in, and
// its SID names one row of every column, so a cold probe needs a few bytes
// of each of its columns' blocks of that block index — and those blocks lie
// side by side in a segment file, the builder writing a block index's
// columns one after another. A read plan fetches them together: per
// segment, stage by stage, each stage's bytes of every column in as few
// preads as the file's layout allows, into one recycled buffer. Every file
// segment is read so, whatever its footer holds: a block without page
// checksums — one of a page or less, or any of a segment written before them
// — is one whole unit of the plan.

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pdtstore/internal/compress"
	"pdtstore/internal/storage"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// bridgeGap is the most unwanted bytes a plan reads through to make two of a
// stage's reads one pread. It is where a pread costs what copying and
// checksumming the bytes between costs (BenchmarkBridgeGap: two 4 KB reads
// a gap apart, each checksummed by page, against one read through the gap;
// on a 2-vCPU shared amd64 VM, go1.24.0, medians of 7 runs, one read won at
// a 4 KB gap, 1.32 against 1.56 µs, tied at 8 KB, 1.88 against 1.94, and
// lost at 12 KB, 2.28 against 1.56).
const bridgeGap = 8 << 10

// A Probe is one key probe's point reads of a store. LowerBound and the
// scanners the probe opens read a block through one read plan, opened by
// whichever of them reaches the block first: the key's block is resolved
// before any byte of it is read, and each of the probe's columns is read from
// it together with the others. A probe keeps the plan of the block it reads
// now: it moves forward, and the sort-key blocks that a probe of an earlier
// key's block would read again are pooled (Device). A probe is for one
// goroutine; Release hands its buffers back, after which neither it nor its
// scanners may be used.
type Probe struct {
	s    *Store
	cols []int
	pl   *plan // the plan of block pl.blk, or nil
}

var probes = sync.Pool{New: func() any { return new(Probe) }}

// NewProbe returns a probe that reads cols, which begin with the sort key's
// columns: LowerBound searches them in place, in their plan.
func (s *Store) NewProbe(cols []int) *Probe {
	p := probes.Get().(*Probe)
	p.s = s
	p.cols = append(p.cols[:0], cols...)
	return p
}

// Release hands the probe's plan and the probe back for reuse.
func (p *Probe) Release() {
	if p.pl != nil {
		p.pl.release()
	}
	p.pl, p.s = nil, nil
	probes.Put(p)
}

// NewScanner is Store.NewScanner over the probe's columns, reading each
// block through the probe's plan of it, or opening one on a point window.
func (p *Probe) NewScanner(from, to uint64) *Scanner {
	sc := p.s.NewScanner(p.cols, from, to)
	sc.probe = p
	return sc
}

// find returns the probe's plan of block blk, or nil.
func (p *Probe) find(blk int) *plan {
	if p.pl != nil && p.pl.blk == blk {
		return p.pl
	}
	return nil
}

// plan returns the probe's plan of block blk, opening it in place of the
// plan of another block if need be.
func (p *Probe) plan(blk int) (*plan, error) {
	if pl := p.find(blk); pl != nil {
		return pl, nil
	}
	if p.pl == nil {
		p.pl = plans.Get().(*plan)
	}
	if err := p.pl.open(p.s, blk, p.cols, true); err != nil {
		return nil, err
	}
	return p.pl, nil
}

// pointWindow reports whether a window of n rows of block blk over cols is a
// point read: whether it covers fewer rows than one page holds on average in
// the column whose block has the most pages (a block of a page or less, or of
// a segment without page checksums, counting one). Any other window reads its
// columns' blocks whole through the pool.
func (s *Store) pointWindow(cols []int, blk, n int) bool {
	rows := s.rowsIn(blk)
	if n >= rows {
		return false
	}
	pages := 1
	for _, c := range cols {
		k := s.key(c, blk)
		pages = max(pages, k.seg.Pages(c, k.blk))
	}
	return n*pages < rows
}

// A plan is a point read's fetch of one logical block over a list of
// columns. Opening it resolves each column's block to its chain member and
// asks the device, under one lock, which are pooled: a pooled block is read
// from the pool, and a memory segment's whole into it. Every other block is
// a member of the plan, read into buf, where each segment's members lie by
// file offset: around the pool on its first point read since DropCaches, and
// whole into the pool on its second, as a searched key block is at once.
//
// Stage 0 reads each member whole that the plan pools or that has no page
// checksums — it fits in a page, or its segment predates them — and the
// header page of every other. Each fetch then reads, stage by stage, the
// ranges compress.RowExtent names for its spans. A stage's wanted bytes of
// one segment, less those read before, become as few reads as bridgeGap
// allows (planStage), and every byte read is verified before any is decoded:
// storage.Segment.ReadUnits checks each read's units.
type plan struct {
	s    *Store
	blk  int // -1 while the plan holds no block
	cols []int
	enc  [][]byte // per column: its block's bytes; of a member, only those read are
	mem  []member // per column
	segs []planSeg
	buf  []byte

	// scratch of one open or stage
	keys   []devKey
	pool   []bool // per column: stage 0 reads it whole into the pool
	order  []int
	wants  []want
	reads  []planRead
	units  []storage.Unit
	ext    []compress.Extent
	pooled []devKey
	blocks [][]byte
}

// member is what the plan knows of one column's block.
type member struct {
	seg   int  // the plan segment the block is read from; -1 when it came whole from the pool
	li    int  // its index in that segment's layout
	whole bool // every byte of it is read and verified
	more  bool // the fetch under way has another RowExtent stage for it
}

// planSeg is one segment a plan reads from.
type planSeg struct {
	seg  *storage.Segment
	lay  *storage.Layout
	done []fileRange // the file bytes read so far, ascending
	clus []cluster
}

// A cluster is members of a segment at most bridgeGap apart, laid out in buf
// from at as their file bytes [lo, hi) lie, so a read may span them.
type cluster struct {
	lo, hi int64
	at     int
}

// fileRange is bytes [lo, hi) of a segment file.
type fileRange struct{ lo, hi int64 }

// A want is bytes [lo, hi) of block i of a segment's layout, whole units of
// it, that a stage reads from plan segment seg.
type want struct{ seg, i, lo, hi int }

// A planRead is one pread: file bytes [lo, hi), covered by units [u0, u1) of
// the stage's units.
type planRead struct {
	lo, hi int64
	u0, u1 int
}

var plans = sync.Pool{New: func() any { return new(plan) }}

// open makes p the plan of block blk over cols and reads its stage 0. With
// search, each sort-key column cols begins with is pooled whole, for
// LowerBound.
func (p *plan) open(s *Store, blk int, cols []int, search bool) error {
	p.s, p.blk = s, -1
	p.cols = append(p.cols[:0], cols...)
	p.keys = p.keys[:0]
	for _, c := range cols {
		p.keys = append(p.keys, s.key(c, blk))
	}
	nkey := 0 // the searched key columns: cols[:nkey]
	for search && nkey < len(cols) && nkey < len(s.schema.SortKey) && cols[nkey] == s.schema.SortKey[nkey] {
		nkey++
	}
	n := len(cols)
	p.enc, p.pool, p.mem = grow(p.enc, n), grow(p.pool, n), grow(p.mem, n)
	p.segs = p.segs[:0]
	s.dev.claim(p.keys, nkey, p.enc, p.pool)
	for i, k := range p.keys {
		p.mem[i] = member{seg: -1, whole: true}
		switch {
		case p.enc[i] != nil:
		case !k.seg.PointReads():
			b, err := s.fill(k, blk)
			if err != nil {
				return err
			}
			p.enc[i] = b
		default:
			p.mem[i] = member{seg: p.segOf(k.seg), li: k.seg.Layout().Index(k.col, k.blk)}
		}
	}
	p.layout()
	p.wants = p.wants[:0]
	for i := range p.mem {
		m := &p.mem[i]
		if m.seg < 0 {
			continue
		}
		b := p.segs[m.seg].lay.Blocks[m.li]
		m.whole = !b.Paged || p.pool[i]
		hi := b.Len
		if !m.whole {
			hi = storage.PageSize
		}
		p.wants = append(p.wants, want{m.seg, m.li, 0, hi})
	}
	bytes, reads, err := p.read()
	p.pooled, p.blocks = p.pooled[:0], p.blocks[:0]
	for i := range p.mem {
		m := &p.mem[i]
		if err != nil || m.seg < 0 || !m.whole {
			continue
		}
		in := p.enc[i]
		if err = p.upgrade(i); err == nil && p.pool[i] {
			if &p.enc[i][0] == &in[0] { // the pool keeps it past buf
				p.enc[i] = slices.Clone(in)
			}
			m.seg = -1
			p.pooled, p.blocks = append(p.pooled, p.keys[i]), append(p.blocks, p.enc[i])
		}
	}
	if err != nil {
		p.pooled = p.pooled[:0] // pool nothing
	}
	if reads > 0 {
		s.dev.charge(bytes, reads, p.pooled, p.blocks)
	}
	if err != nil {
		return err
	}
	p.blk = blk
	return nil
}

// grow returns s with length n, reusing its array, every element zero.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// segOf returns the plan segment of seg, adding it.
func (p *plan) segOf(seg *storage.Segment) int {
	for i := range p.segs {
		if p.segs[i].seg == seg {
			return i
		}
	}
	if len(p.segs) < cap(p.segs) {
		p.segs = p.segs[:len(p.segs)+1]
	} else {
		p.segs = append(p.segs, planSeg{})
	}
	ps := &p.segs[len(p.segs)-1]
	ps.seg, ps.lay, ps.done, ps.clus = seg, seg.Layout(), ps.done[:0], ps.clus[:0]
	return len(p.segs) - 1
}

// layout lays the members out in buf: segment by segment, their blocks in
// file order, those at most bridgeGap apart in one cluster with the bytes
// between them, and points each member's enc at its block.
func (p *plan) layout() {
	size := 0
	for si := range p.segs {
		ps := &p.segs[si]
		p.order = p.order[:0]
		for i, m := range p.mem {
			if m.seg == si {
				p.order = append(p.order, i)
			}
		}
		blocks := ps.lay.Blocks
		for a := 1; a < len(p.order); a++ { // a plan's members are few: insertion sort
			for b := a; b > 0 && blocks[p.mem[p.order[b]].li].Off < blocks[p.mem[p.order[b-1]].li].Off; b-- {
				p.order[b], p.order[b-1] = p.order[b-1], p.order[b]
			}
		}
		for _, i := range p.order {
			b := blocks[p.mem[i].li]
			lo, hi := b.Off, b.Off+int64(b.Len)
			if n := len(ps.clus); n > 0 && lo-ps.clus[n-1].hi <= bridgeGap {
				if c := &ps.clus[n-1]; hi > c.hi {
					size += int(hi - c.hi)
					c.hi = hi
				}
				continue
			}
			ps.clus = append(ps.clus, cluster{lo, hi, size})
			size += b.Len
		}
	}
	if cap(p.buf) < size {
		p.buf = make([]byte, size)
	}
	p.buf = p.buf[:size]
	for i, m := range p.mem {
		if m.seg >= 0 {
			b := p.segs[m.seg].lay.Blocks[m.li]
			p.enc[i], _ = p.segs[m.seg].bytes(p.buf, b.Off, b.Off+int64(b.Len))
		}
	}
}

// bytes returns where file bytes [lo, hi) lie in buf, and whether one of the
// segment's clusters holds them.
func (ps *planSeg) bytes(buf []byte, lo, hi int64) ([]byte, bool) {
	for _, c := range ps.clus {
		if c.lo <= lo && hi <= c.hi {
			return buf[c.at+int(lo-c.lo) : c.at+int(hi-c.lo)], true
		}
	}
	return nil, false
}

// fetch reads what a decode of spans (compress.Decode*Spans) reads of every
// member not yet read whole: compress.RowExtent's ranges, stage by stage, one
// stage of every member at a time. A plan of pooled blocks alone reads
// nothing.
func (p *plan) fetch(spans []compress.Span) error {
	if len(p.segs) == 0 {
		return nil
	}
	for stage, more := 0, true; more; stage++ {
		more = false
		p.wants = p.wants[:0]
		for i := range p.mem {
			m := &p.mem[i]
			if m.seg < 0 || m.whole || stage > 0 && !m.more {
				continue
			}
			n := p.segs[m.seg].lay.Blocks[m.li].Len
			p.ext, m.more = compress.RowExtent(p.enc[i], spans, stage, p.ext[:0])
			more = more || m.more
			for _, e := range p.ext {
				a, b := storage.PageCover(e.Lo, e.Hi)
				p.wants = append(p.wants, want{m.seg, m.li, a, min(b, n)})
			}
		}
		bytes, reads, err := p.read()
		if reads > 0 {
			p.s.dev.charge(bytes, reads, nil, nil)
		}
		if err != nil {
			return err
		}
	}
	for i, m := range p.mem {
		if m.seg >= 0 && !m.whole {
			if err := p.upgrade(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// upgrade passes member i's bytes through compress.Upgrade: a block of a
// retired scheme, which RowExtent has named whole, is read in a written one.
func (p *plan) upgrade(i int) error {
	b, err := compress.Upgrade(p.enc[i])
	if err != nil {
		return fmt.Errorf("colstore: column %d block %d: %w", p.cols[i], p.blk, err)
	}
	if &b[0] != &p.enc[i][0] {
		p.enc[i], p.mem[i].whole = b, true
	}
	return nil
}

// read makes one stage's reads: per segment, the wanted bytes less those read
// before, as planStage merges them, each read verified whole. It returns the
// bytes and the preads read, for the caller to charge.
func (p *plan) read() (bytes, reads int, err error) {
	for a := 1; a < len(p.wants); a++ { // by segment; planStage orders each segment's
		for b := a; b > 0 && p.wants[b].seg < p.wants[b-1].seg; b-- {
			p.wants[b], p.wants[b-1] = p.wants[b-1], p.wants[b]
		}
	}
	for w := 0; w < len(p.wants) && err == nil; {
		ps, e := &p.segs[p.wants[w].seg], w+1
		for e < len(p.wants) && p.wants[e].seg == p.wants[w].seg {
			e++
		}
		p.reads, p.units = planStage(ps.lay.Blocks, p.wants[w:e], ps.done, p.reads[:0], p.units[:0])
		for _, r := range p.reads {
			dst, ok := ps.bytes(p.buf, r.lo, r.hi)
			if !ok {
				err = fmt.Errorf("colstore: block %d: a read of [%d, %d) of %s lies outside the plan", p.blk, r.lo, r.hi, ps.seg.Path())
				break
			}
			if err = ps.seg.ReadUnits(dst, p.units[r.u0:r.u1]); err != nil {
				break
			}
			bytes, reads = bytes+len(dst), reads+1
		}
		ps.done = addDone(ps.done, p.reads)
		w = e
	}
	return bytes, reads, err
}

// release hands the plan back for reuse.
func (p *plan) release() {
	clear(p.enc)
	for i := range p.segs {
		p.segs[i].seg, p.segs[i].lay = nil, nil
	}
	p.s = nil
	plans.Put(p)
}

// planStage plans one stage's reads of a segment whose blocks, in file order,
// are blocks: the units wants name (block blocks[w.i]'s bytes [w.lo, w.hi),
// whole units of it) that done (the file ranges read before, ascending) does
// not hold, in file order, one read per stretch without a gap. Two reads
// become one where the bytes between them are at most bridgeGap, none of
// them done, and whole units of blocks that follow each other without a hole:
// those are read and verified too. It appends the reads to reads and their
// units, in file order, to units.
func planStage(blocks []storage.BlockSpan, wants []want, done []fileRange, reads []planRead, units []storage.Unit) ([]planRead, []storage.Unit) {
	for a := 1; a < len(wants); a++ { // by file offset
		for b := a; b > 0 && blocks[wants[b].i].Off+int64(wants[b].lo) < blocks[wants[b-1].i].Off+int64(wants[b-1].lo); b-- {
			wants[b], wants[b-1] = wants[b-1], wants[b]
		}
	}
	r0, last := len(reads), -1 // last: the block of the last unit appended
	for _, w := range wants {
		b := blocks[w.i]
		lo, hi := b.Off+int64(w.lo), b.Off+int64(w.hi)
		d := sort.Search(len(done), func(k int) bool { return done[k].hi > lo })
		for lo < hi {
			end := hi
			if d < len(done) && done[d].lo < hi {
				if done[d].lo <= lo {
					lo = done[d].hi
					d++
					continue
				}
				end = done[d].lo
			}
			u := unitCover(b, int(lo-b.Off), int(end-b.Off))
			ulo, uhi := b.Off+int64(u.Lo), b.Off+int64(u.Hi)
			switch r := len(reads) - 1; {
			case r >= r0 && w.i == last && ulo <= reads[r].hi: // more of the last unit's block
				reads[r].hi = max(reads[r].hi, uhi)
				units[len(units)-1].Hi = max(units[len(units)-1].Hi, u.Hi)
			case r >= r0 && (ulo == reads[r].hi || ulo > reads[r].hi && ulo-reads[r].hi <= bridgeGap && bridges(blocks, last, reads[r].hi, ulo, done)):
				units = appendBridge(units, blocks, last, reads[r].hi, ulo)
				units = appendUnit(units, u)
				reads[r].hi, reads[r].u1 = uhi, len(units)
			default:
				reads = append(reads, planRead{ulo, uhi, len(units), len(units) + 1})
				units = append(units, u)
			}
			last, lo = w.i, end
		}
	}
	return reads, units
}

// unitCover is the whole units of block b that hold its bytes [lo, hi): their
// pages, or the block.
func unitCover(b storage.BlockSpan, lo, hi int) storage.Unit {
	if !b.Paged {
		return storage.Unit{Col: b.Col, Blk: b.Blk, Lo: 0, Hi: b.Len}
	}
	lo, hi = storage.PageCover(lo, hi)
	return storage.Unit{Col: b.Col, Blk: b.Blk, Lo: lo, Hi: min(hi, b.Len)}
}

// bridges reports whether the file bytes [x, y) — x the end of a unit of
// blocks[j] — are whole units of blocks that follow each other without a
// hole, none of them in done.
func bridges(blocks []storage.BlockSpan, j int, x, y int64, done []fileRange) bool {
	if d := sort.Search(len(done), func(k int) bool { return done[k].hi > x }); d < len(done) && done[d].lo < y {
		return false
	}
	for {
		b := blocks[j]
		if end := b.Off + int64(b.Len); x < end {
			if y < end {
				return b.Paged && (y-b.Off)%storage.PageSize == 0
			}
			if x = end; x == y {
				return true
			}
		}
		if j++; j == len(blocks) || blocks[j].Off != x {
			return false
		}
	}
}

// appendBridge appends the units bridges accepted between x and y.
func appendBridge(units []storage.Unit, blocks []storage.BlockSpan, j int, x, y int64) []storage.Unit {
	for x < y {
		b := blocks[j]
		if end := b.Off + int64(b.Len); x < end {
			z := min(end, y)
			units = appendUnit(units, storage.Unit{Col: b.Col, Blk: b.Blk, Lo: int(x - b.Off), Hi: int(z - b.Off)})
			x = z
		}
		j++
	}
	return units
}

// appendUnit appends u, or extends the last unit when u continues it.
func appendUnit(units []storage.Unit, u storage.Unit) []storage.Unit {
	if n := len(units) - 1; n >= 0 && units[n].Col == u.Col && units[n].Blk == u.Blk && units[n].Hi == u.Lo {
		units[n].Hi = u.Hi
		return units
	}
	return append(units, u)
}

// addDone adds the ranges of reads, ascending, to done.
func addDone(done []fileRange, reads []planRead) []fileRange {
	for _, r := range reads {
		at := sort.Search(len(done), func(k int) bool { return done[k].lo > r.lo })
		done = append(done, fileRange{})
		copy(done[at+1:], done[at:])
		done[at] = fileRange{r.lo, r.hi}
	}
	out := done[:0]
	for _, f := range done { // coalesce ranges that touch or overlap
		if n := len(out) - 1; n >= 0 && f.lo <= out[n].hi {
			out[n].hi = max(out[n].hi, f.hi)
			continue
		}
		out = append(out, f)
	}
	return out
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
// any block. The key blocks are read whole through the probe's plan of the
// block, which pools them.
func (p *Probe) LowerBound(key types.Row) (uint64, error) {
	s := p.s
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
	pl, err := p.plan(blk)
	if err != nil {
		return 0, err
	}
	// [lo, hi): the block's rows (as block offsets) equal to key on every
	// column searched so far; within them the next key column is sorted.
	lo, hi := 0, s.rowsIn(blk)
	var v *vector.Vector
	for i, want := range key {
		col := s.schema.SortKey[i]
		if i >= len(p.cols) || p.cols[i] != col {
			return 0, fmt.Errorf("colstore: a probe of columns %v does not begin with the sort key %v", p.cols, s.schema.SortKey)
		}
		enc := pl.enc[i] // the plan read it whole
		var ge, gt int
		switch kind := s.schema.Cols[col].Kind; kind {
		case types.Int64, types.Date:
			ge, gt, err = compress.SearchInt64s(enc, lo, hi, want.I)
		default:
			if v == nil || v.Kind != kind {
				v = vector.New(kind, hi-lo)
			}
			v.Reset()
			v.Extend(hi - lo)
			if err = decodeSpans(enc, []compress.Span{{Row: lo, N: hi - lo}}, v); err == nil {
				ge = lo + sort.Search(hi-lo, func(r int) bool { return types.Compare(v.Get(r), want) >= 0 })
				gt = ge + sort.Search(hi-ge, func(r int) bool { return types.Compare(v.Get(ge-lo+r), want) > 0 })
			}
		}
		if err != nil {
			return 0, fmt.Errorf("colstore: column %d block %d: %w", col, blk, err)
		}
		if ge == gt {
			return uint64(blk*s.blockRows + ge), nil
		}
		lo, hi = ge, gt
	}
	return uint64(blk*s.blockRows + lo), nil
}

// rowsIn is how many rows logical block blk holds.
func (s *Store) rowsIn(blk int) int {
	return int(min(uint64(s.blockRows), s.nrows-uint64(blk*s.blockRows)))
}
