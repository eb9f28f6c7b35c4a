package pdt

// MergeScan merges a stable-image scan with the updates in a PDT, purely by
// position (the paper's Algorithm 2, in its block-oriented form: a run of
// tuples between two updates is passed through, never re-handled, and the
// sort key is never read unless the query itself projects it).
//
// A merge holds no batch of its own. It hands the consumer's batch down to
// its source for every run of untouched positions, so a stable value is
// written exactly once — by the stable scanner, from its block — however many
// layers sit above it; a layer only interleaves its inserts, patches its
// modifies in place and tells the source to skip what it deletes.
//
// A MergeScan is itself a Source, so stacked PDTs (Read/Write/Trans) merge by
// chaining MergeScans: each layer's SIDs are the RIDs produced by the layer
// below. The RIDs of a merge's output are consecutive by construction, so no
// layer writes them: Numbered does, once per batch, on top of the stack.
//
// Because the merge is positional, a consumer's filters can run below it. A
// run between two entries is untouched stable rows at contiguous positions,
// so whether they qualify is the source's to decide: a selecting merge
// (SelectRuns) walks its cursor over a batch, hands its source the batch's
// runs in one call, and filters only the rows it writes itself — its inserts
// and the stable rows it patches.

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
// positions of one image. Next appends the values of up to max of them to
// out's vectors — never RIDs — and returns how many (0 when exhausted, fewer
// than max whenever it suits the source); Skip passes over up to n positions
// without producing them and returns how many; More reports whether Next
// would still produce a row. colstore.Scanner and MergeScan implement it.
type Source interface {
	BatchSource
	Skip(n int) (int, error)
	More() (bool, error)
}

// SizeHinter is optionally implemented by sources that can estimate how many
// rows remain; sinks use the hint to pre-size output batches. The hint is
// advisory.
type SizeHinter interface {
	SizeHint() int
}

// SizeHint returns src's estimate of how many rows remain, or -1 when it
// offers none.
func SizeHint(src BatchSource) int {
	if h, ok := src.(SizeHinter); ok {
		return h.SizeHint()
	}
	return -1
}

// Selector is a source that runs a consumer's filter chain itself: a
// positional stack under Numbered (and engine.OffsetRids) whose bottom is a
// RunSelector, whatever the number of merges above it. Select is Next for a
// consumer that filters: out (empty on entry) gains up to max rows in every
// vector, the count returned, and sel is set to the indexes of those that
// pass every filter of chain, which holds at least one. A vector's values at
// rows sel leaves out are unspecified, and so is every value of a slot past
// chain.Outputs.
type Selector interface {
	Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error)
}

// RunSelector is a Source that filters the rows the merge above it passes
// through: colstore.Scanner, and a MergeScan over a RunSelector. Its SizeHint
// is exact. SelectRuns places a batch's rows: out's vectors already reach
// every position runs names, and each run passes over Skip rows, then puts
// the next N at batch positions At, At+1, ...; the runs ascend in position.
// keep lists, ascending, the positions the caller decides itself: rows it
// writes, and rows of the runs it patches. A run row at one of them is
// written in every slot and never filtered. sel (reset first) gets, in
// ascending order, every position of keep and those of the other run rows
// that pass every filter of chain, with every output slot written there.
// Values anywhere else are unspecified.
type RunSelector interface {
	Source
	SizeHinter
	SelectRuns(out *vector.Batch, runs []vector.Run, keep []uint32, chain *vector.Chain, sel *vector.Selection) error
}

// runSelector returns src as a RunSelector when it can select: a merge can
// exactly when its own source can.
func runSelector(src Source) RunSelector {
	if m, ok := src.(*MergeScan); ok && m.rs == nil {
		return nil
	}
	rs, _ := src.(RunSelector)
	return rs
}

// Numbered is the top of a positional pipeline: src's rows, numbered with
// consecutive RIDs from startRID. It is a Selector exactly when src is a
// RunSelector: a stack of merges over the stable scanner.
func Numbered(src Source, startRID uint64) BatchSource {
	n := &numbered{src: src, rid: startRID}
	if rs := runSelector(src); rs != nil {
		return &numberedSelector{numbered: n, rs: rs}
	}
	return n
}

type numbered struct {
	src Source
	rid uint64
}

func (s *numbered) Next(out *vector.Batch, max int) (int, error) {
	n, err := s.src.Next(out, max)
	s.number(out, n)
	return n, err
}

// number appends the RIDs of the n rows just produced.
func (s *numbered) number(out *vector.Batch, n int) {
	base := len(out.Rids)
	out.Rids = slices.Grow(out.Rids, n)[:base+n]
	for i := range out.Rids[base:] {
		out.Rids[base+i] = s.rid + uint64(i)
	}
	s.rid += uint64(n)
}

func (s *numbered) SizeHint() int { return SizeHint(s.src) }

type numberedSelector struct {
	*numbered
	rs  RunSelector
	one [1]vector.Run
}

// Select reads the next batch as the one run of a SelectRuns call.
func (s *numberedSelector) Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	sel.Reset()
	n := min(max, s.rs.SizeHint())
	if n <= 0 {
		return 0, nil
	}
	if out.Len() != 0 {
		return 0, fmt.Errorf("pdt: Select into a batch holding %d rows", out.Len())
	}
	out.Extend(n)
	s.one[0] = vector.Run{N: n}
	if err := s.rs.SelectRuns(out, s.one[:], nil, chain, sel); err != nil {
		return 0, err
	}
	s.number(out, n)
	return n, nil
}

// MergeScan applies one PDT layer on top of a positional row source.
type MergeScan struct {
	t    *PDT
	src  Source
	rs   RunSelector // src, when it can select
	cols []int       // schema column indexes present in the batches, in order
	proj []int       // schema column -> batch index, -1 if not projected

	cur        cursor
	left       int    // rows still to emit, once SizeHint has counted them (-1 before)
	nextSID    uint64 // SID of the next stable row to consume from src
	startRID   uint64
	includeEnd bool
	done       bool
	plan       *runPlan // SelectRuns' buffers; nil until the first call
}

// runPlan is one SelectRuns call's walk: what the merge asks of its source,
// and the rows it decides itself.
type runPlan struct {
	runs   []vector.Run     // the stable rows passed through, for the source
	skip   int              // source rows passed over since the last run
	keep   []uint32         // positions the source leaves undecided
	above  []uint32         // the caller's keep positions not yet reached
	mods   []modAt          // patches, applied once the source has written their rows
	decide []uint32         // the rows this layer decides: its inserts and patched rows
	passed vector.Selection // those of them that pass the chain
}

// modAt is one modify entry's value for the tuple at batch position at.
type modAt struct {
	at, slot int
	col      uint16
	val      uint64
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
	return &MergeScan{
		t:          t,
		src:        src,
		rs:         runSelector(src),
		cols:       append([]int(nil), cols...),
		proj:       proj,
		cur:        cur,
		left:       -1,
		nextSID:    startSID,
		startRID:   uint64(int64(startSID) + cur.delta),
		includeEnd: includeEnd,
	}
}

// StartRID returns the RID of the first row this merge will emit — the
// startSID for a further stacked layer.
func (m *MergeScan) StartRID() uint64 { return m.startRID }

// SizeHint counts the remaining rows: the source's remainder plus the layer's
// net shift over exactly those positions (one descent), plus the inserts at
// the range's end when this merge emits them. It is exact when the source's
// hint is. The count is taken once and then kept up to date as rows go out.
func (m *MergeScan) SizeHint() int {
	if m.left >= 0 {
		return m.left
	}
	n := SizeHint(m.src)
	if n < 0 {
		return -1
	}
	end := m.nextSID + uint64(n)
	c := m.t.newCursorAtSid(end)
	rows := int64(n) + c.delta - m.cur.delta
	for m.includeEnd && c.valid() && c.sid() == end && c.kind() == KindIns {
		rows++
		c.advance()
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

// Next emits up to max merged rows into out — one vector per projected
// column, in column order — returning the count; 0 means the scan is complete.
func (m *MergeScan) Next(out *vector.Batch, max int) (int, error) {
	n, err := m.merge(out, max)
	m.emitted(n)
	return n, err
}

// Skip passes over up to n merged rows, returning the count.
func (m *MergeScan) Skip(n int) (int, error) {
	n, err := m.merge(nil, n)
	m.emitted(n)
	return n, err
}

// More reports whether Next would emit another row. Stable rows this layer
// deletes are consumed on the way: they could never be emitted.
func (m *MergeScan) More() (bool, error) {
	for !m.done {
		if m.cur.valid() && m.cur.sid() == m.nextSID {
			switch m.cur.kind() {
			case KindDel:
				if err := m.dropDeleted(); err != nil {
					return false, err
				}
				continue
			case KindIns:
				if m.includeEnd {
					return true, nil
				}
			}
		}
		return m.src.More()
	}
	return false, nil
}

// dropDeleted consumes the stable row under the cursor's delete entry; the
// scan is complete when the source has no such row.
func (m *MergeScan) dropDeleted() error {
	n, err := m.src.Skip(1)
	if n == 1 {
		m.nextSID++
		m.cur.advance()
	}
	m.done = n == 0
	return err
}

// pull consumes up to n stable rows: into out, or past them when out is nil.
func (m *MergeScan) pull(out *vector.Batch, n int) (int, error) {
	var err error
	if out == nil {
		n, err = m.src.Skip(n)
	} else {
		n, err = m.src.Next(out, n)
	}
	m.nextSID += uint64(n)
	return n, err
}

// merge is Algorithm 2 over up to max output rows: appended to out, or only
// counted when out is nil (Skip).
func (m *MergeScan) merge(out *vector.Batch, max int) (int, error) {
	produced := 0
	for produced < max && !m.done {
		run, mod, err := m.nextRun(max - produced)
		if err != nil {
			return produced, err
		}
		if run > 0 {
			n, err := m.pull(out, run)
			produced += n
			if err != nil {
				return produced, err
			}
			// A stable range ending before the next update applies ends the
			// scan: only inserts at the boundary could still qualify, and
			// that update is beyond it.
			m.done = n == 0
			if mod && n == run {
				at := 0
				if out != nil {
					at = out.Len() - 1
				}
				if err := m.patch(out, at, false); err != nil {
					return produced, err
				}
			}
			continue
		}
		if m.cur.kind() == KindDel {
			if err := m.dropDeleted(); err != nil {
				return produced, err
			}
			continue
		}
		if !m.includeEnd {
			// An insert exactly at the end of the stable range belongs to the
			// scan that starts there.
			more, err := m.src.More()
			if err != nil {
				return produced, err
			}
			if !more {
				m.done = true
				continue
			}
		}
		if out != nil {
			m.insert(out, out.Len())
		}
		produced++
		m.cur.advance()
	}
	return produced, nil
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

// insert writes the insert under the cursor into every vector of out, at
// position at — appended when at is the batch's length.
func (m *MergeScan) insert(out *vector.Batch, at int) {
	tuple := m.t.vals.ins[m.cur.val()]
	for i, c := range m.cols {
		if v := out.Vecs[i]; at == v.Len() {
			v.Append(tuple[c])
		} else {
			v.Set(at, tuple[c])
		}
	}
}

// patch applies the modify chain under the cursor to the tuple at batch
// position at of out (to nothing when out is nil), and moves the cursor past
// it. later records the values in the plan instead, for a tuple the source
// has yet to write.
func (m *MergeScan) patch(out *vector.Batch, at int, later bool) error {
	for sid := m.cur.sid(); m.cur.valid() && m.cur.sid() == sid; m.cur.advance() {
		k := m.cur.kind()
		if k == KindIns || k == KindDel {
			return fmt.Errorf("pdt: malformed chain at sid %d", sid)
		}
		switch bi := m.proj[k]; {
		case bi < 0 || out == nil:
		case later:
			m.plan.mods = append(m.plan.mods, modAt{at: at, slot: bi, col: k, val: m.cur.val()})
		default:
			out.Vecs[bi].Set(at, m.t.vals.mods[k][m.cur.val()])
		}
	}
	return nil
}

// SelectRuns is the merge's side of a selection (RunSelector). It walks its
// cursor over the runs by position only, as Algorithm 2 does, and hands its
// source the stable rows among them in one call: the rows this layer deletes,
// and those the runs skip, are gaps in the source's runs. It writes its
// inserts into every slot and has the source write the rows it modifies
// whole, then patches them. Those two kinds are the rows it decides itself —
// unless the caller keeps them, to patch or decide them in turn — so it has
// the source keep them in sel, then runs the chain's kernels over them once
// and drops from sel those that fail.
func (m *MergeScan) SelectRuns(out *vector.Batch, runs []vector.Run, keep []uint32, chain *vector.Chain, sel *vector.Selection) error {
	if m.rs == nil {
		return fmt.Errorf("pdt: a merge over a source that cannot select")
	}
	if m.plan == nil {
		m.plan = &runPlan{}
	}
	p := m.plan
	p.runs, p.skip, p.keep, p.above, p.mods, p.decide = p.runs[:0], 0, p.keep[:0], keep, p.mods[:0], p.decide[:0]
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
	if err := m.rs.SelectRuns(out, p.runs, p.keep, chain, sel); err != nil {
		return err
	}
	for _, md := range p.mods {
		out.Vecs[md.slot].Set(md.at, m.t.vals.mods[md.col][md.val])
	}
	p.passed.Reset()
	for _, at := range p.decide {
		p.passed.Append(at)
	}
	chain.Apply(out, &p.passed)
	sel.Drop(p.decide, p.passed.Indexes())
	return nil
}

// walk is Algorithm 2 over n output rows, by position only: placed at batch
// positions at, at+1, ... of out, or passed over when out is nil. Stable rows
// become the source's runs (or its skips), inserts are written at once, and
// modifies wait in the plan for the source to write their tuples.
func (m *MergeScan) walk(out *vector.Batch, n, at int) error {
	p := m.plan
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
				if err := m.patch(out, last, true); err != nil {
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
// has passed it on already.
func (p *runPlan) own(at int) {
	if k := len(p.keep) - 1; k < 0 || p.keep[k] != uint32(at) {
		p.keep = append(p.keep, uint32(at))
		p.decide = append(p.decide, uint32(at))
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
