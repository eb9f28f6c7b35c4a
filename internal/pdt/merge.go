package pdt

// MergeScan merges a stable-image scan with the updates in a PDT, purely by
// position (the paper's Algorithm 2, in its block-oriented form: a run of
// tuples between two updates is passed through, never re-handled, and the
// sort key is never read unless the query itself projects it).
//
// A merge holds no batch of its own. It hands the consumer's batch down to
// its source for every run of untouched positions, so a stable value is
// written exactly once — by the stable scanner, from its decoded block —
// however many layers sit above it; a layer only interleaves its inserts,
// patches its modifies in place and tells the source to skip what it deletes.
//
// A MergeScan is itself a Source, so stacked PDTs (Read/Write/Trans) merge by
// chaining MergeScans: each layer's SIDs are the RIDs produced by the layer
// below. The RIDs of a merge's output are consecutive by construction, so no
// layer writes them: Numbered does, once per batch, on top of the stack.

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

// Selector is a source that runs a consumer's filter chain itself. Only the
// stable scanner is one: a merge must see every row of its source to place
// its updates, so a chain can run below the merges only when there are none.
// Select is Next for a consumer that filters: out (empty on entry) gains up
// to max rows in every vector, the count returned, and sel is set to the
// indexes of those that pass every filter of chain, which holds at least
// one. A vector's values at rows sel leaves out are unspecified, and so is
// every value of a slot past chain.Outputs.
type Selector interface {
	Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error)
}

// Numbered is the top of a positional pipeline: src's rows, numbered with
// consecutive RIDs from startRID. It is a Selector exactly when src is one —
// when no merge sits between it and the stable scanner.
func Numbered(src Source, startRID uint64) BatchSource {
	n := &numbered{src: src, rid: startRID}
	if s, ok := src.(Selector); ok {
		return &numberedSelector{numbered: n, sel: s}
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
	sel Selector
}

func (s *numberedSelector) Select(out *vector.Batch, max int, chain *vector.Chain, sel *vector.Selection) (int, error) {
	n, err := s.sel.Select(out, max, chain, sel)
	s.number(out, n)
	return n, err
}

// MergeScan applies one PDT layer on top of a positional row source.
type MergeScan struct {
	t    *PDT
	src  Source
	cols []int // schema column indexes present in the batches, in order
	proj []int // schema column -> batch index, -1 if not projected

	cur        cursor
	nextSID    uint64 // SID of the next stable row to consume from src
	startRID   uint64
	includeEnd bool
	done       bool
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
		cols:       append([]int(nil), cols...),
		proj:       proj,
		cur:        cur,
		nextSID:    startSID,
		startRID:   uint64(int64(startSID) + cur.delta),
		includeEnd: includeEnd,
	}
}

// StartRID returns the RID of the first row this merge will emit — the
// startSID for a further stacked layer.
func (m *MergeScan) StartRID() uint64 { return m.startRID }

// SizeHint estimates the remaining row count: the source's remainder plus the
// layer's net shift over exactly those positions (one descent), counting the
// inserts at the range's end when this merge emits them.
func (m *MergeScan) SizeHint() int {
	n := SizeHint(m.src)
	if n < 0 {
		return -1
	}
	end := m.nextSID + uint64(n)
	if m.includeEnd {
		end++
	}
	rid, _, _ := m.t.SeekSid(end)
	return max(0, int(int64(rid)-int64(end)-m.cur.delta)+n)
}

// Next emits up to max merged rows into out — one vector per projected
// column, in column order — returning the count; 0 means the scan is complete.
func (m *MergeScan) Next(out *vector.Batch, max int) (int, error) { return m.merge(out, max) }

// Skip passes over up to n merged rows, returning the count.
func (m *MergeScan) Skip(n int) (int, error) { return m.merge(nil, n) }

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
		// Tuples before the next insert or delete (all that are left, when
		// there is none) pass through: the source writes them into out. A
		// modify does not end the run: its tuple passes through with the
		// rest and is patched where it landed.
		run, mod := max-produced, false
		if m.cur.valid() {
			usid, kind := m.cur.sid(), m.cur.kind()
			if usid < m.nextSID {
				return produced, fmt.Errorf("pdt: merge cursor behind scan (entry sid %d, scan at %d)", usid, m.nextSID)
			}
			d := usid - m.nextSID
			if mod = kind != KindIns && kind != KindDel; mod {
				d++
			}
			if d < uint64(run) {
				run = int(d)
			}
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
			if mod && m.cur.sid() < m.nextSID {
				if err := m.patch(out); err != nil {
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
			tuple := m.t.vals.ins[m.cur.val()]
			for i, c := range m.cols {
				out.Vecs[i].Append(tuple[c])
			}
		}
		produced++
		m.cur.advance()
	}
	return produced, nil
}

// patch applies the modify chain under the cursor to the tuple the source
// wrote last (to nothing when out is nil), and moves the cursor past it.
func (m *MergeScan) patch(out *vector.Batch) error {
	for sid := m.cur.sid(); m.cur.valid() && m.cur.sid() == sid; m.cur.advance() {
		k := m.cur.kind()
		if k == KindIns || k == KindDel {
			return fmt.Errorf("pdt: malformed chain at sid %d", sid)
		}
		if bi := m.proj[k]; bi >= 0 && out != nil {
			v := out.Vecs[bi]
			v.Set(v.Len()-1, m.t.vals.mods[k][m.cur.val()])
		}
	}
	return nil
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
