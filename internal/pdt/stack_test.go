package pdt

// The stack differential: 1-5 MergeScans chained over a fake of the stable
// scanner, read under Numbered in arbitrary batch sizes, against a
// row-at-a-time model that never looks at a cursor — plus the property the
// chain exists for: every stable value is written once, into the consumer's
// own batch, whatever the depth. Next is read into fresh batches and into
// batches still holding the rows before, which it must append after; its
// selecting twin reads the same stack through Select with a drawn filter
// chain, the empty one included, and must keep exactly the rows, values and
// RIDs the chain keeps of the model's.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// stackSchema is the stack tests' table: a key, then an int, a string and a
// float column, one of each kind a filter tests.
func stackSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.String},
		{Name: "f", Kind: types.Float64},
	}, []int{0})
}

// blockSource is the stable scanner's shape without a store: rows [pos, end)
// of an image. It records what it is asked for: wrote counts the values
// written per position, skipped the positions passed over, batches every
// distinct batch it was handed. It is a Source by the letter of the contract:
// SelectRuns writes every row of its runs whole, filters those not kept with
// the chain's kernels, and scribbles over the rows that fail, whose values a
// selector leaves unspecified. Its scratch is its own, so a read allocates
// nothing per call once the maps hold every position.
type blockSource struct {
	rows         []types.Row
	cols         []int
	pos, end     int
	wrote        map[int]int
	skipped      map[int]bool
	batches      map[*vector.Batch]bool
	cand, tested vector.Selection
	union        []uint32
}

func newBlockSource(rows []types.Row, cols []int, from, to int) *blockSource {
	to = min(to, len(rows))
	return &blockSource{rows: rows, cols: cols, pos: min(from, to), end: to,
		wrote: map[int]int{}, skipped: map[int]bool{}, batches: map[*vector.Batch]bool{}}
}

func (s *blockSource) SizeHint() int { return s.end - s.pos }

func (s *blockSource) SelectRuns(out *vector.Batch, runs []vector.Run, keep []uint32, chain *vector.Chain, sel *vector.Selection) error {
	s.batches[out] = true
	cand := &s.cand
	cand.Reset()
	kept := keep
	for _, r := range runs {
		if r.Skip+r.N > s.end-s.pos {
			return fmt.Errorf("runs reach past the source's end")
		}
		for i := 0; i < r.Skip; i++ {
			s.skipped[s.pos+i] = true
		}
		s.pos += r.Skip
		for at := r.At; at < r.At+r.N; at++ {
			for j, c := range s.cols {
				out.Vecs[j].Set(at, s.rows[s.pos][c])
			}
			s.wrote[s.pos]++
			s.pos++
			for len(kept) > 0 && int(kept[0]) < at {
				kept = kept[1:]
			}
			if len(kept) == 0 || int(kept[0]) != at {
				cand.Append(uint32(at))
			}
		}
	}
	s.tested.Reset()
	s.tested.AppendShifted(cand.Indexes(), 0)
	chain.Apply(out, cand)
	for pass, tested := cand.Indexes(), s.tested.Indexes(); len(tested) > 0; tested = tested[1:] {
		if len(pass) > 0 && pass[0] == tested[0] {
			pass = pass[1:]
			continue
		}
		for _, v := range out.Vecs {
			scribble(v, int(tested[0]))
		}
	}
	if sel != nil {
		s.union = append(append(s.union[:0], cand.Indexes()...), keep...)
		slices.Sort(s.union)
		sel.Reset()
		sel.AppendShifted(s.union, 0)
	}
	return nil
}

// scribble overwrites value i of v with one no test row holds.
func scribble(v *vector.Vector, i int) {
	switch v.Kind {
	case types.Float64:
		v.F[i] = -1e300
	case types.String:
		v.S[i] = "\x00scribbled"
	default:
		v.I[i] = math.MinInt64 + 7
	}
}

// modelLayer is one layer of the model: in holds the rows at positions
// [start, start+len(in)) of the image below p; the result is what a merge of
// p over exactly those positions must emit, and the RID of its first row. It
// walks p's entry list position by position: the inserts at a position, then
// the row there unless deleted, with its modifies applied; at the position
// past the last row, the inserts only, and only when includeEnd.
func modelLayer(p *PDT, in []types.Row, start uint64, includeEnd bool) (out []types.Row, startRID uint64) {
	es := p.Entries()
	shift, i := int64(0), 0
	for ; i < len(es) && es[i].SID < start; i++ {
		shift += kindShift(es[i].Kind)
	}
	for k := 0; k <= len(in); k++ {
		sid := start + uint64(k)
		var row types.Row
		deleted := k == len(in)
		if !deleted {
			row = in[k].Clone()
		}
		for ; i < len(es) && es[i].SID == sid; i++ {
			switch e := es[i]; {
			case e.IsInsert():
				if k < len(in) || includeEnd {
					out = append(out, p.EntryTuple(e).Clone())
				}
			case e.IsDelete():
				deleted = true
			case !deleted:
				row[e.ModColumn()] = p.EntryTuple(e)[0]
			}
		}
		if !deleted {
			out = append(out, row)
		}
	}
	return out, uint64(int64(start) + shift)
}

// modelStack folds modelLayer over the layers, bottom to top.
func modelStack(layers []*PDT, stable []types.Row, lo, hi int, includeEnd bool) ([]types.Row, uint64) {
	rows, sid := stable[lo:hi], uint64(lo)
	for _, l := range layers {
		rows, sid = modelLayer(l, rows, sid, includeEnd)
	}
	return rows, sid
}

// stackOver chains one MergeScan per layer (empty ones included: a merge over
// an empty tree must be the identity) over base.
func stackOver(layers []*PDT, base Source, cols []int, lo int, includeEnd bool) (Source, uint64) {
	src, sid := base, uint64(lo)
	for _, l := range layers {
		m := NewMergeScan(l, src, cols, sid, includeEnd)
		src, sid = m, m.StartRID()
	}
	return src, sid
}

// stackKeyGap spaces the stable keys so that an insert fits between any two
// neighbours some twenty times over.
const stackKeyGap = 1 << 20

func stackStable(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i+1) * stackKeyGap), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i)), types.Float(float64(i) / 4)}
	}
	return rows
}

// buildStack interprets script as update operations, two bytes each, dealt
// round-robin in runs to nLayers layers: every layer's operations address
// the image the layers below it produce (ref mirrors it). The op byte picks
// insert at a position (a key strictly between the neighbours there, so
// inserts pile up at one SID, at the table's ends, and next to ghosts),
// re-insert of the key this layer deleted last, delete, or modify of one of
// the data columns; the second byte picks the position. Inserted and modified
// values are drawn from the ranges the stable rows span, so a filter keeps
// some and drops others. The result is the layers bottom to top and the
// image on top of them.
func buildStack(t *testing.T, script []byte, stable []types.Row, nLayers int) ([]*PDT, []types.Row) {
	t.Helper()
	schema := stackSchema()
	ref := newRefModel(schema, stable)
	layers := make([]*PDT, nLayers)
	per := (len(script)/2 + nLayers - 1) / nLayers
	for li := range layers {
		p := New(schema, 4)
		layers[li] = p
		var ghost types.Row
		ops := script[min(2*per*li, len(script)):min(2*per*(li+1), len(script))]
		for i := 0; i+1 < len(ops); i += 2 {
			op, at := ops[i]%9, int(ops[i+1])
			tag := int64(li*1000 + i)
			switch {
			case op <= 2: // insert at position at
				at %= len(ref.rows) + 1
				lo, hi := int64(-1<<40), int64(1<<40)
				if at > 0 {
					lo = ref.rows[at-1][0].I
				}
				if at < len(ref.rows) {
					hi = ref.rows[at][0].I
				}
				if hi-lo < 2 {
					continue
				}
				key := lo + (hi-lo)/2
				if at == len(ref.rows) {
					key = lo + stackKeyGap
				}
				applyInsert(t, p, ref, types.Row{types.Int(key), types.Int(tag % 89), types.Str(fmt.Sprintf("i%d", tag%11)), types.Float(float64(tag%41) / 2)})
			case op == 3: // re-insert the ghost's key
				if ghost == nil {
					continue
				}
				at := ref.insertRid(ghost)
				if at > 0 && ref.rows[at-1][0].I == ghost[0].I {
					continue
				}
				applyInsert(t, p, ref, types.Row{ghost[0], types.Int(-tag), types.Str("again"), types.Float(-1)})
				ghost = nil
			case len(ref.rows) == 0:
			case op <= 5:
				at %= len(ref.rows)
				ghost = ref.rows[at]
				applyDelete(t, p, ref, at)
			case op == 6:
				applyModify(t, p, ref, at%len(ref.rows), 1, types.Int(tag%101))
			case op == 7:
				applyModify(t, p, ref, at%len(ref.rows), 2, types.Str(fmt.Sprintf("m%d", tag%7)))
			default:
				applyModify(t, p, ref, at%len(ref.rows), 3, types.Float(float64(tag%43)/2))
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("layer %d: %v\n%s", li, err, p)
		}
	}
	return layers, ref.rows
}

var stackProjections = [][]int{{0, 1, 2, 3}, {1}, {2, 0}, {3, 1}, {}}

var stackBatchSizes = []int{1, 3, 16, 1024}

// checkStack is the differential for one stack read through Next. drive is
// consumed a byte per step: a batch size, and whether the batch is emptied
// first or still holds the rows read before — which Next must leave as they
// are and append after; when it runs out the rest is read into fresh batches.
// Every row the batch holds must be the model's, with consecutive RIDs.
func checkStack(t *testing.T, layers []*PDT, stable, image []types.Row, lo, hi int, includeEnd bool, cols []int, drive []byte) {
	t.Helper()
	want, wantRID := modelStack(layers, stable, lo, hi, includeEnd)
	if lo == 0 && hi == len(stable) && includeEnd {
		// The model itself, against the image the updates were applied to.
		if len(want) != len(image) {
			t.Fatalf("model has %d rows, image %d", len(want), len(image))
		}
		for i := range want {
			if types.CompareRows(want[i], image[i]) != 0 {
				t.Fatalf("model row %d = %v, image has %v", i, want[i], image[i])
			}
		}
	}
	where := fmt.Sprintf("[%d,%d) end %v cols %v", lo, hi, includeEnd, cols)

	base := newBlockSource(stable, cols, lo, hi)
	top, startRID := stackOver(layers, base, cols, lo, includeEnd)
	if startRID != wantRID {
		t.Fatalf("%s: start RID %d, model %d", where, startRID, wantRID)
	}
	// Over an exact source the hint is exact, at every depth: a read sizes
	// its batches by it.
	if h := top.SizeHint(); h != len(want) {
		t.Fatalf("%s: size hint %d for %d rows under %d layers", where, h, len(want), len(layers))
	}
	src := Numbered(top, startRID)
	out := vector.NewBatch(stackKinds(cols), 16)
	pos := 0 // rows read so far
	for step := 0; ; step++ {
		act := 0
		if step < len(drive) {
			act = int(drive[step])
		}
		if act%2 == 0 {
			out.Reset()
		}
		k, held := stackBatchSizes[act/2%len(stackBatchSizes)], out.Len()
		n, err := src.Next(out, k)
		if err != nil || n != min(k, len(want)-pos) || out.Len() != held+n || len(out.Rids) != held+n {
			t.Fatalf("%s: Next(%d) after row %d of %d into %d rows = %d, %v (%d rows, %d rids)", where, k, pos, len(want), held, n, err, out.Len(), len(out.Rids))
		}
		first := pos - held // the model row of the batch's first
		for j, v := range out.Vecs {
			for i := 0; i < out.Len(); i++ {
				if types.Compare(v.Get(i), want[first+i][cols[j]]) != 0 {
					t.Fatalf("%s: row %d col %d = %v, want %v\nlayers %v", where, first+i, cols[j], v.Get(i), want[first+i], layers)
				}
			}
		}
		for i, rid := range out.Rids {
			if rid != wantRID+uint64(first+i) {
				t.Fatalf("%s: rid of row %d = %d, want %d", where, first+i, rid, wantRID+uint64(first+i))
			}
		}
		pos += n
		if n > 0 {
			continue
		}
		if len(base.batches) > 1 || (len(base.batches) == 1 && !base.batches[out]) {
			t.Fatalf("%s: the base was handed a batch that is not the consumer's", where)
		}
		for sid, times := range base.wrote {
			if times != 1 || base.skipped[sid] {
				t.Fatalf("%s: stable row %d written %d times (skipped %v)", where, sid, times, base.skipped[sid])
			}
		}
		return
	}
}

func stackKinds(cols []int) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = stackSchema().Cols[c].Kind
	}
	return kinds
}

// stackChain draws a filter chain over the projection cols from filt: none,
// or one to three of an int range on a, a float range on f and a string Eq or
// In on b, in an order filt picks, each on its column's projected slot or,
// when cols lacks the column, on a filter-only slot after them. It returns the
// batch's columns — cols, then the filter-only ones — and the chain.
func stackChain(cols []int, filt []byte) ([]int, *vector.Chain) {
	at := func(i int) int {
		if i < len(filt) {
			return int(filt[i])
		}
		return 0
	}
	slots := slices.Clone(cols)
	slotOf := func(c int) int {
		if i := slices.Index(slots, c); i >= 0 {
			return i
		}
		slots = append(slots, c)
		return len(slots) - 1
	}
	lo, flo := int64(at(1)%90)-5, float64(at(2)%40)/2
	str := vector.Pred{Op: vector.PredStrEq, Strs: []string{fmt.Sprintf("s%d", at(5)%80)}}
	if at(6)%2 == 1 {
		str = vector.Pred{Op: vector.PredStrIn, Strs: []string{str.Strs[0], fmt.Sprintf("m%d", at(6)%7), fmt.Sprintf("i%d", at(7)%11), "again"}}
	}
	str.Col = 2
	preds := []vector.Pred{
		{Col: 1, Op: vector.PredInt64Range, ILo: lo, IHi: lo + int64(at(3)%60)},
		{Col: 3, Op: vector.PredFloat64Range, FLo: flo, FHi: flo + float64(at(4)%30)/2},
		str,
	}
	chain := &vector.Chain{Outputs: len(cols)}
	for k := 0; k < at(0)%4; k++ {
		p := preds[(at(0)/4+k)%3]
		chain.Filters = append(chain.Filters, vector.Filter{Slot: slotOf(p.Col), Pred: p})
	}
	return slots, chain
}

// renderSelected appends one line per selected row of b: its RID and its
// first outputs values.
func renderSelected(lines []string, b *vector.Batch, sel []uint32, outputs int) []string {
	for _, i := range sel {
		var sb strings.Builder
		fmt.Fprintf(&sb, "@%d:", b.Rids[i])
		for _, v := range b.Vecs[:outputs] {
			sb.WriteString(v.Get(int(i)).String())
			sb.WriteByte('|')
		}
		lines = append(lines, sb.String())
	}
	return lines
}

// checkSelect is the selecting differential for one stack: Select, in batch
// sizes drive picks (now and then a Next, filtered here, in between), must
// keep what the chain keeps of the model's rows — the same rows, the same
// values in every output slot, the same RIDs — and still write every stable
// value at most once, into the consumer's batch. (blockSource serves runs
// whatever blocks they cross; the stable scanner's side of that is
// colstore's TestSelectRunsMatchesRows.)
func checkSelect(t *testing.T, layers []*PDT, stable []types.Row, lo, hi int, includeEnd bool, cols []int, filt, drive []byte) {
	t.Helper()
	slots, chain := stackChain(cols, filt)
	kinds := stackKinds(slots)
	where := fmt.Sprintf("[%d,%d) end %v slots %v chain %+v", lo, hi, includeEnd, slots, chain.Filters)

	rows, rid := modelStack(layers, stable, lo, hi, includeEnd)
	model := vector.NewBatch(kinds, len(rows))
	for i, r := range rows {
		for j, c := range slots {
			model.Vecs[j].Append(r[c])
		}
		model.Rids = append(model.Rids, rid+uint64(i))
	}
	ref := vector.NewSelection(len(rows))
	ref.All(len(rows))
	chain.Apply(model, ref)
	want := renderSelected(nil, model, ref.Indexes(), len(cols))

	base := newBlockSource(stable, slots, lo, hi)
	top, rid := stackOver(layers, base, slots, lo, includeEnd)
	src := Numbered(top, rid)
	out, sel := vector.NewBatch(kinds, 16), vector.NewSelection(16)
	var got []string
	read := 0
	for step := 0; ; step++ {
		act := 0
		if step < len(drive) {
			act = int(drive[step])
		}
		k := stackBatchSizes[act%len(stackBatchSizes)]
		out.Reset()
		var n int
		var err error
		if act%5 == 4 {
			if n, err = src.Next(out, k); n > 0 {
				sel.All(n)
				chain.Apply(out, sel)
			}
		} else {
			n, err = src.Select(out, k, chain, sel)
		}
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if n == 0 {
			break
		}
		if n > k || len(out.Rids) != n || out.Len() != n {
			t.Fatalf("%s: a batch of %d rows (asked %d) holds %d RIDs and %d values", where, n, k, len(out.Rids), out.Len())
		}
		got = renderSelected(got, out, sel.Indexes(), len(cols))
		read += n
	}
	if read != len(rows) || !slices.Equal(got, want) {
		t.Fatalf("%s: Select read %d rows and kept\n%v\nthe model has %d and the chain keeps\n%v\nlayers %v", where, read, got, len(rows), want, layers)
	}
	if len(base.batches) > 1 {
		t.Fatalf("%s: the base was handed a batch that is not the consumer's", where)
	}
	for sid, times := range base.wrote {
		if times != 1 || base.skipped[sid] {
			t.Fatalf("%s: stable row %d written %d times (skipped %v)", where, sid, times, base.skipped[sid])
		}
	}
}

// checkStackScript reads one stack every which way the byte arguments select.
func checkStackScript(t *testing.T, script, drive, filt []byte, nLayers, nStable, lo, hi, proj uint8, includeEnd bool) {
	t.Helper()
	stable := stackStable(int(nStable) % 80)
	layers, image := buildStack(t, script, stable, 1+int(nLayers)%5)
	from, to := 0, len(stable)
	if len(stable) > 0 {
		from = int(lo) % (len(stable) + 1)
		to = from + int(hi)%(len(stable)-from+1)
	}
	cols := stackProjections[int(proj)%len(stackProjections)]
	checkStack(t, layers, stable, image, from, to, includeEnd, cols, drive)
	checkStack(t, layers, stable, image, 0, len(stable), true, cols, drive)
	checkSelect(t, layers, stable, from, to, includeEnd, cols, filt, drive)
	checkSelect(t, layers, stable, 0, len(stable), true, cols, filt, drive)
}

// FuzzMergeScanStack feeds arbitrary update scripts, read schedules and
// filter chains to the stack differential and its selecting twin.
func FuzzMergeScanStack(f *testing.F) {
	f.Add([]byte{0, 3, 4, 3, 3, 0, 6, 2, 0, 200, 4, 0, 7, 1}, []byte{0, 1, 2, 4, 9, 2}, []byte{1, 3, 5, 40, 9, 3}, uint8(2), uint8(20), uint8(3), uint8(9), uint8(0), false)
	f.Add([]byte{0, 255, 1, 255, 2, 255, 4, 0, 3, 0, 4, 0, 4, 0}, []byte{2, 2, 5, 8}, []byte{5, 0, 0, 59, 29, 1, 1}, uint8(4), uint8(6), uint8(0), uint8(6), uint8(3), true)
	// One-row batches appended to the last row: a trailing insert three
	// layers down.
	f.Add([]byte("0B0700$7$0$1"), []byte{1, 1, 1, 1, 1, 1, 1}, []byte{8, 10, 2, 30, 10, 4, 3, 5}, uint8(4), uint8(6), uint8(0), uint8(6), uint8(3), true)
	f.Add([]byte{}, []byte{12}, []byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), true)
	f.Fuzz(func(t *testing.T, script, drive, filt []byte, nLayers, nStable, lo, hi, proj uint8, includeEnd bool) {
		if len(script) > 400 {
			script = script[:400]
		}
		checkStackScript(t, script, drive, filt, nLayers, nStable, lo, hi, proj, includeEnd)
	})
}

// TestMergeScanStackSeeded is the fuzz target's twin under go test: seeded
// random scripts over every depth, projection, chain and end rule.
func TestMergeScanStackSeeded(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 2*rng.Intn(120))
		rng.Read(script)
		drive := make([]byte, rng.Intn(60))
		rng.Read(drive)
		filt := make([]byte, 8)
		rng.Read(filt)
		b := make([]byte, 3)
		rng.Read(b)
		checkStackScript(t, script, drive, filt, uint8(seed), b[0], b[1], b[2], uint8(seed/5), seed%2 == 0)
	}
}

// TestMergeScanStackCorners pins the cases the issue names, by construction
// rather than by luck.
func TestMergeScanStackCorners(t *testing.T) {
	stable := stackStable(12)
	schema := stackSchema()
	ref := newRefModel(schema, stable)
	ins := func(p *PDT, key int64, tag string) {
		applyInsert(t, p, ref, types.Row{types.Int(key), types.Int(-1), types.Str(tag), types.Float(0.5)})
	}
	// L0: two inserts before stable row 4 and one exactly at the table's end;
	// L1 deletes the first of them and modifies the second; L2 deletes stable
	// row 4 itself (now a ghost with an insert in front of it), L3 re-inserts
	// its key and appends; L4 stays empty.
	l0, l1, l2, l3, l4 := New(schema, 4), New(schema, 4), New(schema, 4), New(schema, 4), New(schema, 4)
	ins(l0, 4*stackKeyGap+10, "a")
	ins(l0, 4*stackKeyGap+20, "b")
	ins(l0, 13*stackKeyGap, "tail")
	applyDelete(t, l1, ref, 4)
	applyModify(t, l1, ref, 4, 1, types.Int(77))
	applyDelete(t, l2, ref, 5)
	ins(l3, 5*stackKeyGap, "again")
	ins(l3, 14*stackKeyGap, "tail2")
	layers := []*PDT{l0, l1, l2, l3, l4}
	for _, r := range [][2]int{{0, 12}, {4, 12}, {0, 4}, {3, 5}, {4, 4}, {12, 12}, {5, 9}} {
		for _, includeEnd := range []bool{false, true} {
			for _, cols := range stackProjections {
				checkStack(t, layers, stable, ref.rows, r[0], r[1], includeEnd, cols, []byte{0, 1, 2, 4, 5, 2, 8, 2})
				checkStack(t, layers, stable, ref.rows, r[0], r[1], includeEnd, cols, []byte{1, 1, 1, 3, 1, 1})
				// No chain; a chain that keeps every a, inserted and modified
				// alike; and one that tells row 4's old a from its new one.
				checkSelect(t, layers, stable, r[0], r[1], includeEnd, cols, []byte{0}, []byte{0, 1, 2, 4})
				checkSelect(t, layers, stable, r[0], r[1], includeEnd, cols, []byte{1, 4, 0, 80}, []byte{0, 1, 2, 3})
				checkSelect(t, layers, stable, r[0], r[1], includeEnd, cols, []byte{5, 77, 0, 2, 20}, []byte{3, 2})
			}
		}
	}
}

// TestMergeScanSizeHintIsRangeLocal: the hint is the source's remainder plus
// the shift of the entries over those positions — not the whole tree's.
func TestMergeScanSizeHintIsRangeLocal(t *testing.T) {
	schema := stackSchema()
	stable := stackStable(64)
	for _, grow := range []bool{true, false} {
		p := New(schema, 4)
		ref := newRefModel(schema, stable)
		for i := 0; i < 20; i++ { // all inside stable [40, 64)
			if grow {
				applyInsert(t, p, ref, types.Row{types.Int(50*stackKeyGap + int64(i) + 1), types.Int(0), types.Str("x"), types.Float(0)})
			} else {
				applyDelete(t, p, ref, 40)
			}
		}
		ms := NewMergeScan(p, newBlockSource(stable, []int{1}, 8, 24), []int{1}, 8, false)
		if h := ms.SizeHint(); h != 16 {
			t.Fatalf("grow=%v: a 16-row range no entry touches hints %d", grow, h)
		}
		ms = NewMergeScan(p, newBlockSource(stable, []int{1}, 32, 64), []int{1}, 32, true)
		want := 32 + int(p.Delta())
		if h := ms.SizeHint(); h != want {
			t.Fatalf("grow=%v: the touched range hints %d, want %d", grow, h, want)
		}
		out := vector.NewBatch([]types.Kind{types.Int64}, 8)
		if _, err := Numbered(ms, ms.StartRID()).Next(out, 5); err != nil {
			t.Fatal(err)
		}
		if h := ms.SizeHint(); h != want-5 {
			t.Fatalf("grow=%v: after 5 rows the hint is %d, want %d", grow, h, want-5)
		}
	}
}

// TestMergeScanStackAllocsAreFlat: reading through five live layers allocates
// what reading the bare source does plus a constant per merge opened — no
// layer owns a batch, and nothing is allocated per batch or per row: reading
// twice the rows through them costs what reading the first half does.
func TestMergeScanStackAllocsAreFlat(t *testing.T) {
	schema := stackSchema()
	stable := stackStable(40000)
	ref := newRefModel(schema, stable[:64]) // updates near the front: cheap to mirror
	layers := make([]*PDT, 5)
	for li := range layers {
		p := New(schema, 8)
		applyInsert(t, p, ref, types.Row{types.Int(int64(3+li)*stackKeyGap + 7), types.Int(1), types.Str("x"), types.Float(0)})
		applyDelete(t, p, ref, 20+li)
		applyModify(t, p, ref, 30, 1, types.Int(int64(li)))
		layers[li] = p
	}
	cols := []int{0, 1}
	kinds := []types.Kind{types.Int64, types.Int64}
	out := vector.NewBatch(kinds, 1024)
	base := newBlockSource(stable, cols, 0, len(stable))
	scan := func(layers []*PDT, rows int) func() {
		return func() {
			base.pos, base.end = 0, rows
			top, rid := stackOver(layers, base, cols, 0, true)
			src := Numbered(top, rid)
			for {
				out.Reset()
				if n, err := src.Next(out, 1024); err != nil || n == 0 {
					return
				}
			}
		}
	}
	bare := testing.AllocsPerRun(5, scan(nil, 20000))
	deep := testing.AllocsPerRun(5, scan(layers, 20000))
	if twice := testing.AllocsPerRun(5, scan(layers, 40000)); twice != deep {
		t.Fatalf("5 layers allocate %.0f over 20000 rows, %.0f over 40000", deep, twice)
	}
	// A merge is its struct, its column list and its projection map (and a
	// cursor spine in a tree with inner nodes); a staging batch of two columns
	// would be seven more.
	if deep-bare > 4*float64(len(layers)) {
		t.Fatalf("5 layers allocate %.0f, the bare source %.0f: more than 4 per merge", deep, bare)
	}
}
