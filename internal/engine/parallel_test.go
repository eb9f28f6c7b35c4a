package engine_test

// Tests for the scan executor. The sink matrix holds every sink, at every
// worker count, under every prune outcome, in every delta mode, to a
// reference that shares no executor code: the relation's Scan drained by a
// plain loop and the predicates evaluated row by row in Go. The counting
// relation pins down what an execution asks of its relation — one
// PartitionScan, no Scan, one whole-range open for a lone unpruned worker,
// no readahead unless several workers run.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// renderRow appends one output row: "@rid:" when rid >= 0, then the values.
func renderRow(sb *strings.Builder, rid int64, vals ...types.Value) {
	if rid >= 0 {
		fmt.Fprintf(sb, "@%d:", rid)
	}
	for _, v := range vals {
		sb.WriteString(v.String())
		sb.WriteByte('|')
	}
	sb.WriteByte('\n')
}

// renderSel renders the selected rows of a pipeline batch (its first cols
// vectors), with RIDs when the source emitted them.
func renderSel(sb *strings.Builder, b *vector.Batch, sel []uint32, cols int) {
	vals := make([]types.Value, cols)
	for _, i := range sel {
		for c := range vals {
			vals[c] = b.Vecs[c].Get(int(i))
		}
		rid := int64(-1)
		if len(b.Rids) > int(i) {
			rid = int64(b.Rids[i])
		}
		renderRow(sb, rid, vals...)
	}
}

// fpRun renders a plan's Run stream deterministically, including RIDs when
// the source emits them.
func fpRun(t *testing.T, p *engine.Plan, cols int) string {
	t.Helper()
	out, err := sinks[0].run(p, cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fpBatch renders a collected batch, including RIDs when present.
func fpBatch(b *vector.Batch) string {
	var sb strings.Builder
	sel := make([]uint32, b.Len())
	for i := range sel {
		sel[i] = uint32(i)
	}
	renderSel(&sb, b, sel, len(b.Vecs))
	return sb.String()
}

// cleanBigTable builds a multi-block table large enough that forced-parallel
// runs really split into many morsels, with nothing in its delta structure.
func cleanBigTable(t *testing.T, mode table.DeltaMode, n int) *table.Table {
	t.Helper()
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.Int(int64(i) * 2),
			types.Int(int64(i) % 97),
			types.Float(float64(i) / 8),
			types.Str(fmt.Sprintf("s%03d", i%11)),
		}
	}
	tbl, err := table.Load(testSchema, rows, table.Options{Mode: mode, BlockRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// bigTable is cleanBigTable with scattered updates in the delta structure
// (none in ModeNone).
func bigTable(t *testing.T, mode table.DeltaMode, n int) *table.Table {
	t.Helper()
	tbl := cleanBigTable(t, mode, n)
	if mode == table.ModeNone {
		return tbl
	}
	// Scattered inserts (odd keys), deletes and modifies across the range,
	// including one insert past the last stable key (owned by the final
	// morsel) and one before the first, applied one at a time.
	var ops []table.Op
	for _, k := range []int64{1, 333, 1001, 2*int64(n) + 5} {
		ops = append(ops, table.Op{Kind: table.OpInsert, Row: types.Row{types.Int(k), types.Int(k % 97), types.Float(0.5), types.Str("ins")}})
	}
	for _, k := range []int64{0, 128, 2 * int64(n/2)} {
		ops = append(ops, table.Op{Kind: table.OpDelete, Key: types.Row{types.Int(k)}})
	}
	for _, k := range []int64{64, 1024} {
		ops = append(ops, table.Op{Kind: table.OpUpdate, Key: types.Row{types.Int(k)}, Col: 1, Val: types.Int(7777)})
	}
	for _, op := range ops {
		if _, err := tbl.ApplyBatch([]table.Op{op}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// predSpec is one typed filter stated three ways: the Plan method that adds
// it, the row-level truth the reference evaluates, and the declarative form
// the prune pass sees (to check a variant prunes what it claims to).
type predSpec struct {
	col  int
	keep func(v types.Value) bool
	add  func(p *engine.Plan) *engine.Plan
	pred engine.Pred
}

func intRange(col int, lo, hi int64) predSpec {
	return predSpec{col, func(v types.Value) bool { return lo <= v.I && v.I <= hi },
		func(p *engine.Plan) *engine.Plan { return p.FilterInt64Range(col, lo, hi) },
		engine.Pred{Col: col, Op: engine.PredInt64Range, ILo: lo, IHi: hi}}
}

func intLe(col int, hi int64) predSpec {
	s := intRange(col, math.MinInt64, hi)
	s.add = func(p *engine.Plan) *engine.Plan { return p.FilterInt64Le(col, hi) }
	return s
}

func intGe(col int, lo int64) predSpec {
	s := intRange(col, lo, math.MaxInt64)
	s.add = func(p *engine.Plan) *engine.Plan { return p.FilterInt64Ge(col, lo) }
	return s
}

func intEq(col int, x int64) predSpec {
	s := intRange(col, x, x)
	s.add = func(p *engine.Plan) *engine.Plan { return p.FilterInt64Eq(col, x) }
	s.pred.Eq = true
	return s
}

func floatRange(col int, lo, hi float64) predSpec {
	return predSpec{col, func(v types.Value) bool { return lo <= v.F && v.F <= hi },
		func(p *engine.Plan) *engine.Plan { return p.FilterFloat64Range(col, lo, hi) },
		engine.Pred{Col: col, Op: engine.PredFloat64Range, FLo: lo, FHi: hi}}
}

func floatLt(col int, hi float64) predSpec {
	return predSpec{col, func(v types.Value) bool { return v.F < hi },
		func(p *engine.Plan) *engine.Plan { return p.FilterFloat64Lt(col, hi) },
		engine.Pred{Col: col, Op: engine.PredFloat64Lt, FLo: math.Inf(-1), FHi: hi}}
}

func strEq(col int, x string) predSpec {
	return predSpec{col, func(v types.Value) bool { return v.S == x },
		func(p *engine.Plan) *engine.Plan { return p.FilterStrEq(col, x) },
		engine.Pred{Col: col, Op: engine.PredStrEq, Strs: []string{x}, Eq: true}}
}

func strIn(col int, set ...string) predSpec {
	return predSpec{col, func(v types.Value) bool { return slices.Contains(set, v.S) },
		func(p *engine.Plan) *engine.Plan { return p.FilterStrIn(col, set...) },
		engine.Pred{Col: col, Op: engine.PredStrIn, Strs: set}}
}

func strPrefix(col int, pre string) predSpec {
	return predSpec{col, func(v types.Value) bool { return strings.HasPrefix(v.S, pre) },
		func(p *engine.Plan) *engine.Plan { return p.FilterStrPrefix(col, pre) },
		engine.Pred{Col: col, Op: engine.PredStrPrefix, Strs: []string{pre}}}
}

func strContains(col int, sub string) predSpec {
	return predSpec{col, func(v types.Value) bool { return strings.Contains(v.S, sub) },
		func(p *engine.Plan) *engine.Plan { return p.FilterStrContains(col, sub) },
		engine.Pred{Col: col, Op: engine.PredStrContains, Strs: []string{sub}}}
}

// planSpec describes a plan declaratively, so the test can build both the
// engine.Plan and the reference answer from it.
type planSpec struct {
	name   string
	cols   []int
	lo, hi types.Row // Plan.Range bounds; nil = open
	preds  []predSpec
	batch  int      // 0 = default
	prunes []string // the pruneVariants to run it under; nil = all
}

func (s planSpec) plan(rel engine.Relation) *engine.Plan {
	p := engine.Scan(rel, s.cols...).BatchSize(s.batch)
	if s.lo != nil || s.hi != nil {
		p.Range(s.lo, s.hi)
	}
	for _, f := range s.preds {
		f.add(p)
	}
	return p
}

// reference computes the plan's answer without the executor: rel.Scan over
// every column drained by a plain loop, each predicate evaluated per row,
// the projection applied by hand. It returns the rendering with and without
// RIDs.
func (s planSpec) reference(t *testing.T, rel engine.Relation) (withRids, noRids string) {
	t.Helper()
	schema := rel.Schema()
	all := make([]int, schema.NumCols())
	kinds := make([]types.Kind, len(all))
	for c := range all {
		all[c], kinds[c] = c, schema.Cols[c].Kind
	}
	src, err := rel.Scan(all, s.lo, s.hi)
	if err != nil {
		t.Fatal(err)
	}
	var with, without strings.Builder
	b := vector.NewBatch(kinds, 100)
	vals := make([]types.Value, len(s.cols))
	for {
		b.Reset()
		n, err := src.Next(b, 100)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return with.String(), without.String()
		}
	rows:
		for i := 0; i < n; i++ {
			row := b.Row(i)
			for _, f := range s.preds {
				if !f.keep(row[f.col]) {
					continue rows
				}
			}
			for j, c := range s.cols {
				vals[j] = row[c]
			}
			renderRow(&with, int64(b.Rids[i]), vals...)
			renderRow(&without, -1, vals...)
		}
	}
}

// plansUnderTest are the four plan shapes of the matrix.
func plansUnderTest() []planSpec {
	return []planSpec{
		{name: "full", cols: []int{0, 1, 2, 3}},
		{name: "filtered", cols: []int{1, 2}, preds: []predSpec{intLe(1, 50), floatLt(2, 200)}},
		// Bounds that land mid-block exercise the partial-block seek on
		// every layer cursor.
		{name: "midblock-range", cols: []int{0, 1},
			lo: types.Row{types.Int(13)}, hi: types.Row{types.Int(3001)},
			preds: []predSpec{intRange(0, 13, 3001)}},
		{name: "unprojected-filter", cols: []int{3}, preds: []predSpec{intLe(1, 40)}, batch: 300},
	}
}

// everyFilter is one instance of every Filter* constructor, each selecting
// some rows of bigTable's columns and not others.
func everyFilter() map[string]predSpec {
	return map[string]predSpec{
		"Int64Range":   intRange(1, 10, 60),
		"Int64Le":      intLe(1, 30),
		"Int64Ge":      intGe(1, 70),
		"Int64Eq":      intEq(1, 7),
		"Float64Range": floatRange(2, 20, 180),
		"Float64Lt":    floatLt(2, 120),
		"StrEq":        strEq(3, "s004"),
		"StrIn":        strIn(3, "s001", "ins", "s009", "zz"),
		"StrPrefix":    strPrefix(3, "s00"),
		"StrContains":  strContains(3, "1"),
	}
}

// filterPlans put every Filter* constructor first and after another filter,
// on a projected column and on one only the filters read: a scan that selects
// in the stable scanner decides the first filter on the encoded block, never
// decodes a filter-only column it decides there, and gathers the other
// columns at the rows still selected.
func filterPlans() []planSpec {
	var specs []planSpec
	prunes := []string{"noprune", "some-kept"} // every block read, and some
	for name, f := range everyFilter() {
		other := intGe(0, 300)
		specs = append(specs,
			planSpec{name: "first/projected/" + name, cols: []int{f.col, 0}, preds: []predSpec{f, other}, prunes: prunes},
			planSpec{name: "first/filter-only/" + name, cols: []int{0}, preds: []predSpec{f, other}, batch: 100, prunes: prunes},
			planSpec{name: "later/projected/" + name, cols: []int{0, f.col}, preds: []predSpec{other, f}, prunes: prunes},
			planSpec{name: "later/filter-only/" + name, cols: []int{0}, preds: []predSpec{other, f}, prunes: prunes})
	}
	slices.SortFunc(specs, func(a, b planSpec) int { return strings.Compare(a.name, b.name) })
	return specs
}

// pruneVariants put a plan through each outcome of the access-path decision:
// pruning not attempted, attempted with every block kept (the whole range is
// read), with some kept, and with none kept (beyond the blocks a delta layer
// dirties). The extra predicate is on the sort key, whose zones are tight.
var pruneVariants = []struct {
	name    string
	noPrune bool
	extra   []predSpec // appended to the plan's own predicates
	empty   bool       // the variant selects nothing by construction
}{
	{name: "noprune", noPrune: true},
	{name: "all-kept", extra: []predSpec{intGe(0, -1)}},
	{name: "some-kept", extra: []predSpec{intRange(0, 500, 2500)}},
	{name: "none-kept", extra: []predSpec{intGe(0, 1<<40)}, empty: true},
}

// sinks drive one plan execution and render what came out, in scan order.
var sinks = []struct {
	name string
	rids bool
	run  func(p *engine.Plan, cols int) (string, error)
}{
	// Run comes first: fpRun uses it.
	{"Run", true, func(p *engine.Plan, cols int) (string, error) {
		var sb strings.Builder
		err := p.Run(func(b *vector.Batch, sel []uint32) error {
			renderSel(&sb, b, sel, cols)
			return nil
		})
		return sb.String(), err
	}},
	{"Collect", false, func(p *engine.Plan, cols int) (string, error) {
		b, err := p.Collect()
		if err != nil {
			return "", err
		}
		if len(b.Vecs) != cols || len(b.Rids) != 0 {
			return "", fmt.Errorf("Collect returned %d vecs, %d rids; want %d, 0", len(b.Vecs), len(b.Rids), cols)
		}
		return fpBatch(b), nil
	}},
	{"Collect+WithRids", true, func(p *engine.Plan, cols int) (string, error) {
		b, err := p.WithRids().Collect()
		if err != nil {
			return "", err
		}
		if len(b.Vecs) != cols || len(b.Rids) != b.Len() {
			return "", fmt.Errorf("Collect returned %d vecs, %d rids for %d rows", len(b.Vecs), len(b.Rids), b.Len())
		}
		return fpBatch(b), nil
	}},
	// RunPartitioned's parts run concurrently; rendering each part on its
	// own and joining them in part order must give the scan order.
	{"RunPartitioned", true, func(p *engine.Plan, cols int) (string, error) {
		var parts []strings.Builder
		err := p.RunPartitioned(
			func(n int) error { parts = make([]strings.Builder, n); return nil },
			func(part int, b *vector.Batch, sel []uint32) error {
				renderSel(&parts[part], b, sel, cols)
				return nil
			})
		var sb strings.Builder
		for i := range parts {
			sb.WriteString(parts[i].String())
		}
		return sb.String(), err
	}},
}

// partRelation is a relation the prune pass can be asked about directly: a
// table, or a transaction over one.
type partRelation interface {
	engine.Relation
	PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error)
}

// txnStack is bigTable's PDT table under a transaction manager whose Write-PDT
// holds committed updates of its own: a read through it stacks two live
// layers, the table's PDT as the Read-PDT and the Write-PDT above it.
func txnStack(t *testing.T, n int) *txn.Txn {
	t.Helper()
	tbl := bigTable(t, table.ModePDT, n)
	mgr := txn.NewManager(tbl.Store(), tbl.PDT(), txn.Options{WriteBudget: 1 << 30})
	tx := mgr.Begin()
	ops := []table.Op{
		{Kind: table.OpInsert, Row: types.Row{types.Int(77), types.Int(5), types.Float(3), types.Str("s001")}},
		{Kind: table.OpInsert, Row: types.Row{types.Int(2*int64(n) + 9), types.Int(50), types.Float(100), types.Str("ins")}},
		{Kind: table.OpDelete, Key: types.Row{types.Int(256)}},
		{Kind: table.OpDelete, Key: types.Row{types.Int(1500)}},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(640)}, Col: 1, Val: types.Int(12)},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(1024)}, Col: 3, Val: types.Str("s009")},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(1)}, Col: 2, Val: types.Float(150)},
	}
	for i := int64(3); i < 2*int64(n); i += 396 {
		ops = append(ops, table.Op{Kind: table.OpInsert, Row: types.Row{types.Int(i), types.Int(i % 97), types.Float(float64(i) / 16), types.Str("s004")}})
	}
	if _, err := tx.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if mgr.ReadPDT().Empty() || mgr.WritePDT().Empty() {
		t.Fatal("the stack is not two live layers")
	}
	return mgr.Begin()
}

// TestSinkMatrix runs the plan shapes over five images: no delta structure;
// a PDT table whose PDT is empty, which reads the bare stable scan and filters
// in the scanner; one whose PDT holds live entries, and a transaction over a
// Read+Write stack of two live layers, which both filter in the scanner
// through their merges; and a VDT table, which filters after its merge. Every
// filter constructor, first and later, runs over the PDT images, unpruned and
// pruned.
func TestSinkMatrix(t *testing.T) {
	images := []struct {
		name  string
		mode  table.DeltaMode
		rel   partRelation
		plans []planSpec
	}{
		{"none", table.ModeNone, bigTable(t, table.ModeNone, 2000), plansUnderTest()},
		{"pdt-empty", table.ModePDT, cleanBigTable(t, table.ModePDT, 2000), append(plansUnderTest(), filterPlans()...)},
		{"pdt-live", table.ModePDT, bigTable(t, table.ModePDT, 2000), append(plansUnderTest(), filterPlans()...)},
		{"txn-live", table.ModePDT, txnStack(t, 2000), append(plansUnderTest(), filterPlans()...)},
		{"vdt", table.ModeVDT, bigTable(t, table.ModeVDT, 2000), plansUnderTest()},
	}
	for _, im := range images {
		mode, tbl := im.mode, im.rel
		for _, base := range im.plans {
			for _, v := range pruneVariants {
				if base.prunes != nil && !slices.Contains(base.prunes, v.name) {
					continue
				}
				spec := base
				spec.preds = append(append([]predSpec(nil), base.preds...), v.extra...)
				label := fmt.Sprintf("%s/%s/%s", im.name, spec.name, v.name)
				withRids, noRids := spec.reference(t, tbl)
				if (withRids == "") != v.empty {
					t.Fatalf("%s: reference has %d bytes; the case is vacuous", label, len(withRids))
				}
				checkPruneOutcome(t, label, tbl, mode, spec, v.name)
				for _, workers := range []int{1, 2, 3, 8} {
					for _, sink := range sinks {
						p := spec.plan(tbl).Parallel(workers)
						if v.noPrune {
							p.NoPrune()
						}
						got, err := sink.run(p, len(spec.cols))
						if err != nil {
							t.Fatalf("%s/%s/%d workers: %v", label, sink.name, workers, err)
						}
						want := noRids
						if sink.rids {
							want = withRids
						}
						if got != want {
							t.Errorf("%s/%s/%d workers diverges from the reference\nwant:\n%.300s\ngot:\n%.300s",
								label, sink.name, workers, want, got)
						}
					}
				}
			}
		}
	}
}

// checkPruneOutcome asserts that a prune variant steers the access path where
// its name says, by asking the relation's own prune hook (VDT tables decline
// partitioning altogether and are adapted to one morsel over Scan).
func checkPruneOutcome(t *testing.T, label string, tbl partRelation, mode table.DeltaMode, spec planSpec, variant string) {
	t.Helper()
	ps, err := tbl.PartitionScan(spec.lo, spec.hi)
	if err != nil {
		t.Fatal(err)
	}
	if (ps == nil) != (mode == table.ModeVDT) {
		t.Fatalf("%s: PartitionScan declined = %v", label, ps == nil)
	}
	if ps == nil || variant == "noprune" {
		return
	}
	preds := make([]engine.Pred, len(spec.preds))
	for i, f := range spec.preds {
		preds[i] = f.pred
	}
	res := ps.Prune(preds)
	if res == nil {
		t.Fatalf("%s: prune pass declined", label)
	}
	ok := false
	switch variant {
	case "all-kept":
		// Only the extra predicate is guaranteed to keep everything; the
		// plan's own filters may prune, so look at the extra one alone.
		res = ps.Prune(preds[len(preds)-1:])
		ok = res.Kept == res.Total
	case "some-kept":
		ok = 0 < res.Kept && res.Kept < res.Total
	case "none-kept":
		ok = res.Kept < res.Total && (res.Kept == 0 || mode == table.ModePDT)
	}
	if !ok {
		t.Fatalf("%s: prune pass kept %d of %d blocks", label, res.Kept, res.Total)
	}
}

// countingRel wraps a table and records what the executor asks of it.
type countingRel struct {
	*table.Table
	decline  bool   // PartitionScan returns nil, as a VDT table does
	failPast uint64 // when > 0, a morsel ending past this SID fails to read

	mu        sync.Mutex
	scans     int
	partScans int
	opens     []openCall
}

type openCall struct {
	lo, hi      uint64
	last, ahead bool
}

func (c *countingRel) Scan(cols []int, loKey, hiKey types.Row) (pdt.BatchSource, error) {
	c.scans++
	return c.Table.Scan(cols, loKey, hiKey)
}

func (c *countingRel) PartitionScan(loKey, hiKey types.Row) (*engine.PartScan, error) {
	c.partScans++
	if c.decline {
		return nil, nil
	}
	ps, err := c.Table.PartitionScan(loKey, hiKey)
	if err != nil {
		return nil, err
	}
	inner := ps.Open
	ps.Open = func(cols []int, lo, hi uint64, last, ahead bool) (pdt.BatchSource, error) {
		c.mu.Lock()
		c.opens = append(c.opens, openCall{lo, hi, last, ahead})
		c.mu.Unlock()
		if c.failPast > 0 && hi > c.failPast {
			return failingSource{}, nil
		}
		return inner(cols, lo, hi, last, ahead)
	}
	return ps, nil
}

var errBadBlock = fmt.Errorf("bad block")

type failingSource struct{}

func (failingSource) Next(*vector.Batch, int) (int, error) { return 0, errBadBlock }

func (c *countingRel) reset() { c.scans, c.partScans, c.opens = 0, 0, nil }

// TestExecutorAsksRelationOnce: one plan execution resolves its key range
// once — PartitionScan is called once and Scan never, whichever sink, worker
// count and prune decision — and readahead is requested exactly when several
// workers run.
func TestExecutorAsksRelationOnce(t *testing.T) {
	rel := &countingRel{Table: bigTable(t, table.ModePDT, 2000)}
	specs := append(plansUnderTest(),
		// The benchmark's range query: Range plus an exact filter, pruning
		// attempted, every block of the narrow range kept.
		planSpec{name: "range-all-kept", cols: []int{0, 2},
			lo: types.Row{types.Int(1000)}, hi: types.Row{types.Int(1040)},
			preds: []predSpec{intRange(0, 1000, 1040)}})
	for _, spec := range specs {
		for _, noPrune := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				for _, sink := range sinks {
					rel.reset()
					p := spec.plan(rel).Parallel(workers)
					if noPrune {
						p.NoPrune()
					}
					if _, err := sink.run(p, len(spec.cols)); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/NoPrune=%v/%d workers/%s", spec.name, noPrune, workers, sink.name)
					if rel.partScans != 1 || rel.scans != 0 || len(rel.opens) == 0 {
						t.Errorf("%s: PartitionScan=%d Scan=%d Open=%d, want 1, 0, >0",
							label, rel.partScans, rel.scans, len(rel.opens))
					}
					for _, o := range rel.opens {
						// Several workers were asked for, but a range of one
						// or two blocks resolves to as many morsels, and one
						// morsel to one worker.
						if o.ahead != (workers > 1 && len(rel.opens) > 1) {
							t.Errorf("%s: open %+v of %d: wrong readahead", label, o, len(rel.opens))
						}
					}
				}
			}
		}
	}

	// A lone worker over an unpruned, uncut range opens exactly one source:
	// the whole range, owning the end boundary.
	ps, err := rel.Table.PartitionScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel.reset()
	if _, err := engine.Scan(rel, 0).FilterInt64Le(1, 50).Parallel(1).NoPrune().Collect(); err != nil {
		t.Fatal(err)
	}
	if want := (openCall{ps.Lo, ps.Hi, true, false}); len(rel.opens) != 1 || rel.opens[0] != want {
		t.Errorf("Parallel(1).NoPrune() opened %+v, want exactly %+v", rel.opens, want)
	}

	// A relation that declines is adapted to one morsel over its Scan,
	// however many workers the plan asks for.
	rel.decline = true
	for _, workers := range []int{1, 4} {
		rel.reset()
		want := fpRun(t, engine.Scan(rel.Table, 0, 1).FilterInt64Le(1, 50).Parallel(1), 2)
		if got := fpRun(t, engine.Scan(rel, 0, 1).FilterInt64Le(1, 50).Parallel(workers), 2); got != want {
			t.Errorf("declined relation, %d workers: output diverges", workers)
		}
		if rel.partScans != 1 || rel.scans != 1 {
			t.Errorf("declined relation, %d workers: PartitionScan=%d Scan=%d, want 1, 1", workers, rel.partScans, rel.scans)
		}
	}
}

// TestStopReadsOneBatch: a lone worker's morsel may span the whole table, so
// it must not be read ahead — a sink that stops at its first batch is charged
// the blocks of that batch and no more.
func TestStopReadsOneBatch(t *testing.T) {
	dev := colstore.NewDevice()
	tbl, err := table.Load(testSchema, testRows(2000),
		table.Options{Mode: table.ModePDT, BlockRows: 64, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*engine.Plan{
		engine.Scan(tbl, 1).Parallel(1),
		engine.Scan(tbl, 1).FilterInt64Ge(0, 0).Parallel(1), // pruning attempted, all kept
	} {
		dev.DropCaches()
		dev.ResetStats()
		rows := 0
		err := p.BatchSize(128).Run(func(_ *vector.Batch, sel []uint32) error {
			rows += len(sel)
			return engine.Stop
		})
		if err != nil || rows == 0 || rows > 128 {
			t.Fatalf("stop: %d rows, err %v", rows, err)
		}
		// At most 128 rows of 64-row blocks: two blocks per scanned column,
		// of which the plans have at most two.
		if _, reads := dev.Stats(); reads > 2*2 {
			t.Errorf("immediate Stop read %d blocks of a 32-block table; one batch needs at most 4", reads)
		}
	}
}

func TestParallelAutoThreshold(t *testing.T) {
	// Auto mode: a scan below ParallelThreshold stable rows stays on one
	// worker; one at or past it gets GOMAXPROCS workers (so still one under
	// -cpu=1), and the output must not change.
	small := &countingRel{Table: bigTable(t, table.ModePDT, 2000)}
	fpRun(t, engine.Scan(small, 0), 1)
	if len(small.opens) != 1 || small.opens[0].ahead {
		t.Errorf("small auto scan opened %+v, want one open without readahead", small.opens)
	}
	big := &countingRel{Table: bigTable(t, table.ModePDT, engine.ParallelThreshold+1000)}
	want := fpRun(t, engine.Scan(big, 0, 1, 2, 3).Parallel(1), 4)
	big.reset()
	if got := fpRun(t, engine.Scan(big, 0, 1, 2, 3), 4); got != want {
		t.Errorf("auto-parallel diverges from one worker")
	}
	if parallel := len(big.opens) > 1; parallel != (runtime.GOMAXPROCS(0) > 1) {
		t.Errorf("auto scan past the threshold made %d opens at GOMAXPROCS %d", len(big.opens), runtime.GOMAXPROCS(0))
	}
	// Point-probe-sized batches never auto-parallelize, whatever the table
	// size — early-stop plans must stay cheap.
	big.reset()
	if got := fpRun(t, engine.Scan(big, 0).BatchSize(16).Range(types.Row{types.Int(500)}, types.Row{types.Int(500)}), 1); got == "" {
		t.Errorf("small-batch probe found nothing")
	}
	if len(big.opens) != 1 || big.opens[0].ahead {
		t.Errorf("small-batch scan opened %+v, want one open without readahead", big.opens)
	}
}

func TestParallelEmptyStableWithInserts(t *testing.T) {
	// A PDT holding inserts over an empty stable image: the empty range still
	// produces one morsel, which owns every insert.
	tbl, err := table.Load(testSchema, nil, table.Options{Mode: table.ModePDT, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	var ops []table.Op
	for i := int64(0); i < 20; i++ {
		ops = append(ops, table.Op{Kind: table.OpInsert, Row: types.Row{types.Int(i), types.Int(i), types.Float(0), types.Str("x")}})
	}
	if _, err := tbl.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	want := fpRun(t, engine.Scan(tbl, 0, 1).Parallel(1), 2)
	got := fpRun(t, engine.Scan(tbl, 0, 1).Parallel(4), 2)
	if want == "" || got != want {
		t.Fatalf("empty-stable parallel scan diverges:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

func TestParallelStopAndErrors(t *testing.T) {
	tbl := bigTable(t, table.ModePDT, 2000)
	// Stop ends an ordered parallel run early without error. Batch
	// boundaries are morsel-bounded in parallel runs, so the stopped stream
	// is some non-empty prefix of the serial row stream — rows and order
	// identical, cut possibly earlier.
	var serial []int64
	if err := engine.Scan(tbl, 0).Parallel(1).Run(func(b *vector.Batch, sel []uint32) error {
		for _, i := range sel {
			serial = append(serial, b.Vecs[0].I[i])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var prefix []int64
	if err := engine.Scan(tbl, 0).Parallel(4).Run(func(b *vector.Batch, sel []uint32) error {
		for _, i := range sel {
			prefix = append(prefix, b.Vecs[0].I[i])
		}
		return engine.Stop
	}); err != nil {
		t.Fatal(err)
	}
	if len(prefix) == 0 || len(prefix) > len(serial) {
		t.Fatalf("stop prefix: %d rows of %d", len(prefix), len(serial))
	}
	for i, v := range prefix {
		if v != serial[i] {
			t.Fatalf("stop prefix diverges at row %d: %d != %d", i, v, serial[i])
		}
	}
	// A sink error surfaces once, as itself.
	boom := fmt.Errorf("boom")
	err := engine.Scan(tbl, 0).Parallel(4).Run(func(*vector.Batch, []uint32) error { return boom })
	if err != boom {
		t.Fatalf("sink error = %v, want boom", err)
	}
	// So does a source error, from any sink at any worker count — and the
	// execution ends rather than waiting on the morsel that will never
	// complete. Morsels ending past SID 1500 fail on their first read: with
	// one worker that is the only morsel, with four the scan's tail.
	rel := &countingRel{Table: tbl, failPast: 1500}
	for _, workers := range []int{1, 4} {
		for _, sink := range sinks {
			if _, err := sink.run(engine.Scan(rel, 0, 1).FilterInt64Ge(1, 0).NoPrune().Parallel(workers), 2); err != errBadBlock {
				t.Errorf("%s, %d workers: source error surfaced as %v", sink.name, workers, err)
			}
		}
	}
}

func TestRunPartitionedDeterministic(t *testing.T) {
	tbl := bigTable(t, table.ModePDT, 2000)
	sum := func(workers int) (int64, int) {
		var partials []int64
		parts := 0
		err := engine.Scan(tbl, 1).Parallel(workers).RunPartitioned(
			func(n int) error {
				parts = n
				partials = make([]int64, n)
				return nil
			},
			func(part int, b *vector.Batch, sel []uint32) error {
				for _, i := range sel {
					partials[part] += b.Vecs[0].I[i]
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, p := range partials {
			total += p
		}
		return total, parts
	}
	want, serialParts := sum(1)
	if serialParts != 1 {
		t.Fatalf("serial path reported %d parts", serialParts)
	}
	for _, w := range []int{2, 4, 8} {
		got, parts := sum(w)
		if got != want {
			t.Fatalf("%d workers: partitioned sum %d != serial %d", w, got, want)
		}
		if w > 1 && parts < 2 {
			t.Fatalf("%d workers: only %d partitions", w, parts)
		}
	}
}
