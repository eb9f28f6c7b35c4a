package pdt

// MergeScan merges a stable-image scan with the updates in a PDT, purely by
// position (the paper's Algorithm 2, in its block-oriented form: a run of
// tuples between two updates is passed through, never re-handled, and the
// sort key is never read unless the query itself projects it).
//
// A merge holds no batch of its own. Per batch it walks its cursor by
// position over the places its caller hands it (SelectRuns) and hands its
// source, in one call, the runs of untouched positions among them, so a
// stable value is written exactly once — by the stable scanner, from its
// block — however many layers sit above it; a layer only writes its inserts,
// patches its modifies where they landed and leaves what it deletes out of
// its source's runs.
//
// A MergeScan is itself a Source, so stacked PDTs (Read/Write/Trans) merge by
// chaining MergeScans: each layer's SIDs are the RIDs produced by the layer
// below. The RIDs of a merge's output are consecutive by construction, so no
// layer writes them: Numbered does, once per batch, on top of the stack.
//
// Because the merge is positional, a consumer's filters run below it. A run
// between two entries is untouched stable rows at contiguous positions, so
// whether they qualify is the source's to decide; a merge filters only the
// rows it writes itself — its inserts and the stable rows it patches. A read
// without filters is the same walk with an empty filter chain: there is one
// Algorithm 2 (walk), whatever the consumer asks.

import (
	"fmt"
	"slices"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// BatchSource is what a consumer reads: rows in position order, up to max per
// call, appended to out's vectors (and, from a Numbered source, out.Rids); it
// returns 0 when exhausted.
type BatchSource interface {
	Next(out *vector.Batch, max int) (int, error)
}

// Source is the positional input of a merge: the rows at consecutive
// positions of one image — colstore.Scanner, and a MergeScan over a Source.
// SizeHint is exact: the rows that remain. SelectRuns places a batch's rows:
// out's vectors already reach every position runs names, and each run passes
// over Skip rows, then puts the next N at batch positions At, At+1, ...; the
// runs ascend in position. keep lists, ascending, the positions the caller
// decides itself: rows it writes, and rows of the runs it patches. A run row
// at one of them is written in every slot and never filtered. sel (reset
// first) gets, in ascending order, every position of keep and those of the
// other run rows that pass every filter of chain, with every output slot
// written there — every run row, when chain has no filter. A caller that
// needs no list of them, a read without a filter, may pass a nil sel. Values
// anywhere else are unspecified.
type Source interface {
	SizeHinter
	SelectRuns(out *vector.Batch, runs []vector.Run, keep []uint32, chain *vector.Chain, sel *vector.Selection) error
}

// SizeHinter is a Source's count of the rows it has left. It is exact: a read
// sizes its batches by it.
type SizeHinter interface {
	SizeHint() int
}

// Selector is a BatchSource that runs a consumer's filter chain itself: a
// positional stack under Numbered (and engine.OffsetRids and engine.Concat),
// whatever the number of merges in it. Select is Next for a consumer that
// filters: out gains up to max rows at its end in every vector, the count
// returned, and sel is set to the indexes of those that pass every filter of
// chain. Values and RIDs at rows sel leaves out are unspecified, and so is
// every value of a slot past chain.Outputs. Next is Select with an empty
// chain whose outputs are all of out's vectors: every row it appends is
// written.
type Selector interface {
	BatchSource
	Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error)
}

// Numbered is the top of a positional pipeline: src's rows, numbered with
// consecutive RIDs from startRID.
func Numbered(src Source, startRID uint64) Selector {
	return &numbered{src: src, rid: startRID}
}

type numbered struct {
	src Source
	rid uint64
	one [1]vector.Run
	all vector.Chain // Next's: no filter
}

func (s *numbered) Next(out *vector.Batch, max int) (int, error) {
	s.all.Outputs = len(out.Vecs)
	return s.read(out, max, &s.all, nil)
}

func (s *numbered) Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	sel.Reset()
	return s.read(out, max, chain, sel)
}

// read reads the next batch as the one run of a SelectRuns call, placed at
// the batch's end, and numbers the rows sel keeps (all of them, when nil).
func (s *numbered) read(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	n := min(max, s.src.SizeHint())
	if n <= 0 {
		return 0, nil
	}
	at := out.Len()
	out.Extend(n)
	s.one[0] = vector.Run{N: n, At: at}
	if err := s.src.SelectRuns(out, s.one[:], nil, chain, sel); err != nil {
		return 0, err
	}
	base := len(out.Rids)
	out.Rids = slices.Grow(out.Rids, n)[:base+n]
	if sel == nil {
		for i := range out.Rids[base:] {
			out.Rids[base+i] = s.rid + uint64(i)
		}
	} else {
		rids := out.Rids[base:]
		for _, i := range sel.Indexes() {
			k := int(i) - at
			rids[k] = s.rid + uint64(k)
		}
	}
	s.rid += uint64(n)
	return n, nil
}

// MergeScan applies one PDT layer on top of a positional row source.
type MergeScan struct {
	t    *PDT
	src  Source
	cols []int // schema column indexes present in the batches, in order
	proj []int // schema column -> batch index, -1 if not projected

	cur        cursor
	left       int    // rows still to emit, once SizeHint has counted them (-1 before)
	nextSID    uint64 // SID of the next stable row to consume from src
	startRID   uint64
	includeEnd bool
	plan       runPlan // SelectRuns' buffers
}

// runPlan is one SelectRuns call's walk: what the merge asks of its source,
// and the rows it decides itself.
type runPlan struct {
	runs   []vector.Run     // the stable rows passed through, for the source
	skip   int              // source rows passed over since the last run
	keep   []uint32         // positions the source leaves undecided
	above  []uint32         // the caller's keep positions not yet reached
	mods   []modAt          // patches, applied once the source has written their rows
	filter bool             // the chain has a filter: decide and passed are wanted
	decide []uint32         // the rows this layer decides: its inserts and patched rows
	passed vector.Selection // those of them that pass the chain

	// The first few runs, keeps and patches live in the plan itself, so a
	// walk over a window with few entries — a probe's — allocates nothing.
	runBuf  [8]vector.Run
	keepBuf [16]uint32
	modBuf  [4]modAt
}

// modAt is one modify entry's value for the tuple at batch position at.
type modAt struct {
	at, slot, col int
	val           uint64
}

// nextRun is where Algorithm 2 stands: how many of the next up to n rows are
// stable ones to pass through, up to the next insert or delete (all that are
// left, when there is none), and whether the last of them carries a modify. A
// modify does not end a run: its tuple passes through with the rest and is
// patched where it landed.
func (m *MergeScan) nextRun(n int) (run int, mod bool, err error) {
	if !m.cur.valid() {
		return n, false, nil
	}
	usid, kind := m.cur.sid(), m.cur.kind()
	if usid < m.nextSID {
		return 0, false, fmt.Errorf("pdt: merge cursor behind scan (entry sid %d, scan at %d)", usid, m.nextSID)
	}
	d := usid - m.nextSID
	if mod = kind != KindIns && kind != KindDel; mod {
		d++
	}
	if d <= uint64(n) {
		return int(d), mod, nil
	}
	return n, false, nil
}

// NewMergeScan builds a merge over src, which must produce the given schema
// columns for consecutive positions starting at startSID. includeEnd also
// emits inserts that land exactly at the position where the source ends
// (wanted by key-range scans, whose qualifying inserts may sit just past the
// last stable row of the range, and by full scans for appends at the table
// end).
func NewMergeScan(t *PDT, src Source, cols []int, startSID uint64, includeEnd bool) *MergeScan {
	proj := make([]int, t.schema.NumCols())
	for i := range proj {
		proj[i] = -1
	}
	for i, c := range cols {
		proj[c] = i
	}
	cur := t.newCursorAtSid(startSID)
	m := &MergeScan{
		t:          t,
		src:        src,
		cols:       append([]int(nil), cols...),
		proj:       proj,
		cur:        cur,
		left:       -1,
		nextSID:    startSID,
		startRID:   uint64(int64(startSID) + cur.delta),
		includeEnd: includeEnd,
	}
	p := &m.plan
	p.runs, p.keep, p.mods = p.runBuf[:0], p.keepBuf[:0], p.modBuf[:0]
	return m
}

// StartRID returns the RID of the first row this merge will emit — the
// startSID for a further stacked layer.
func (m *MergeScan) StartRID() uint64 { return m.startRID }

// SizeHint counts the remaining rows: the source's remainder plus the layer's
// net shift over exactly those positions, plus the inserts at the range's end
// when this merge emits them. The shift is read off the cursor's leaf when an
// entry past the range lies in it — a probe's window — and takes one descent
// otherwise. It is exact, as its source's is. The count is taken once and
// then kept up to date as rows go out.
func (m *MergeScan) SizeHint() int {
	if m.left >= 0 {
		return m.left
	}
	n := m.src.SizeHint()
	end := m.nextSID + uint64(n)
	rows, lf, i := int64(n), m.cur.lf, m.cur.pos
	for ; i < lf.count() && lf.sids[i] < end; i++ {
		rows += kindShift(lf.kinds[i])
	}
	for ; m.includeEnd && i < lf.count() && lf.sids[i] == end && lf.kinds[i] == KindIns; i++ {
		rows++
	}
	if i == lf.count() {
		c := m.t.newCursorAtSid(end)
		rows = int64(n) + c.delta - m.cur.delta
		for m.includeEnd && c.valid() && c.sid() == end && c.kind() == KindIns {
			rows++
			c.advance()
		}
	}
	m.left = int(max(0, rows))
	return m.left
}

// emitted counts n rows out of what SizeHint counted.
func (m *MergeScan) emitted(n int) {
	if m.left >= 0 {
		m.left = max(0, m.left-n)
	}
}

// insert writes the insert under the cursor into every vector of out, at
// position at.
func (m *MergeScan) insert(out *vector.Batch, at int) {
	tuple := m.t.vals.ins[m.cur.val()]
	for i, c := range m.cols {
		out.Vecs[i].Set(at, tuple[c])
	}
}

// patch moves the cursor past the modify chain under it, recording the
// values of the projected columns in the plan when record is set: they are
// written at batch position at once the source has written the tuple there.
func (m *MergeScan) patch(at int, record bool) error {
	for sid := m.cur.sid(); m.cur.valid() && m.cur.sid() == sid; m.cur.advance() {
		k := m.cur.kind()
		if k == KindIns || k == KindDel {
			return fmt.Errorf("pdt: malformed chain at sid %d", sid)
		}
		if bi := m.proj[k]; bi >= 0 && record {
			m.plan.mods = append(m.plan.mods, modAt{at: at, slot: bi, col: int(k), val: m.cur.val()})
		}
	}
	return nil
}

// SelectRuns is the merge's side of a read (Source). It walks its cursor over
// the runs by position only, as Algorithm 2 does, and hands its source the
// stable rows among them in one call: the rows this layer deletes, and those
// the runs skip, are gaps in the source's runs. It writes its inserts into
// every slot and has the source write the rows it modifies whole, then
// patches them. Those two kinds are the rows it decides itself — unless the
// caller keeps them, to patch or decide them in turn — so it has the source
// keep them in sel, then runs the chain's kernels over them once and drops
// from sel those that fail.
func (m *MergeScan) SelectRuns(out *vector.Batch, runs []vector.Run, keep []uint32, chain *vector.Chain, sel *vector.Selection) error {
	p := &m.plan
	p.runs, p.skip, p.keep, p.above, p.mods, p.decide = p.runs[:0], 0, p.keep[:0], keep, p.mods[:0], p.decide[:0]
	p.filter = len(chain.Filters) > 0
	for _, r := range runs {
		if err := m.walk(nil, r.Skip, 0); err != nil {
			return err
		}
		if err := m.walk(out, r.N, r.At); err != nil {
			return err
		}
		m.emitted(r.Skip + r.N)
	}
	if p.skip > 0 {
		p.runs = append(p.runs, vector.Run{Skip: p.skip})
	}
	p.keep = append(p.keep, p.above...)
	if err := m.src.SelectRuns(out, p.runs, p.keep, chain, sel); err != nil {
		return err
	}
	for _, md := range p.mods {
		out.Vecs[md.slot].Set(md.at, m.t.vals.mods[md.col][md.val])
	}
	if !p.filter {
		return nil
	}
	p.passed.Reset()
	p.passed.AppendShifted(p.decide, 0)
	chain.Apply(out, &p.passed)
	sel.Drop(p.decide, p.passed.Indexes())
	return nil
}

// walk is Algorithm 2 over n output rows, by position only: placed at batch
// positions at, at+1, ... of out, or passed over when out is nil. Stable rows
// become the source's runs (or its skips), inserts are written at once, and
// modifies wait in the plan for the source to write their tuples.
func (m *MergeScan) walk(out *vector.Batch, n, at int) error {
	p := &m.plan
	for n > 0 {
		run, mod, err := m.nextRun(n)
		if err != nil {
			return err
		}
		if run > 0 {
			m.nextSID += uint64(run)
			if out == nil {
				p.skip += run
			} else {
				p.pass(run, at)
			}
			if mod {
				last := at + run - 1
				if out != nil {
					p.own(last)
				}
				if err := m.patch(last, out != nil); err != nil {
					return err
				}
			}
			at += run
			n -= run
			continue
		}
		if m.cur.kind() == KindDel {
			p.skip++
			m.nextSID++
			m.cur.advance()
			continue
		}
		if out != nil {
			m.insert(out, at)
			p.forward(at + 1)
			p.own(at)
		}
		m.cur.advance()
		at++
		n--
	}
	return nil
}

// pass hands the source the n stable rows landing at batch positions from at:
// one more run, or the last one lengthened when they follow it directly.
func (p *runPlan) pass(n, at int) {
	if k := len(p.runs) - 1; p.skip == 0 && k >= 0 && p.runs[k].At+p.runs[k].N == at {
		p.runs[k].N += n
	} else {
		p.runs = append(p.runs, vector.Run{Skip: p.skip, N: n, At: at})
		p.skip = 0
	}
	p.forward(at + n)
}

// forward passes the caller's keep positions before limit on to the source:
// rows the caller writes itself, and rows of this layer's it patches or
// decides in turn.
func (p *runPlan) forward(limit int) {
	for len(p.above) > 0 && int(p.above[0]) < limit {
		p.keep = append(p.keep, p.above[0])
		p.above = p.above[1:]
	}
}

// own makes the row at batch position at, which this layer writes or
// patches, one it decides itself — unless the caller keeps it, and forward
// has passed it on already. Without a filter there is nothing to decide.
func (p *runPlan) own(at int) {
	if k := len(p.keep) - 1; k < 0 || p.keep[k] != uint32(at) {
		p.keep = append(p.keep, uint32(at))
		if p.filter {
			p.decide = append(p.decide, uint32(at))
		}
	}
}

// ScanAll is a convenience for tests and examples: it drains a BatchSource
// into a single batch.
func ScanAll(src BatchSource, kinds []types.Kind) (*vector.Batch, error) {
	out := vector.NewBatch(kinds, 1024)
	for {
		n, err := src.Next(out, 1024)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}
