package pdt

// The small-scope check of the PDT algebra: every sequence of at most k
// inserts, deletes and modifies over a stable table of at most n rows, on
// fanout-3 trees, bare and on top of fixed prefixes that split leaves and
// inner nodes, held to the row model (refModel). Most bugs show in small
// instances (the small-scope hypothesis, Jackson, Software Abstractions,
// 2006), and a deterministic sweep of all of them is one reference for the
// algebra where per-feature random drivers each sampled a part of it. For
// each sequence:
//   - MergeScan over every SID range, both end rules, every projection and
//     two filter chains against the model (stack_test.go's checkStack and
//     checkSelect); Validate after every op; SidToRid of every stable SID.
//   - For every split into a first layer a and a second b over a's image:
//     Fold ≡ FoldSnap ≡ Snapshot+Propagate ≡ the two-layer stack ≡ the model,
//     inputs untouched (fold_test.go's checkFold); and a Snapshot taken after
//     a, with b written to its origin and b's twin to the fork, each against
//     its own model.
//   - For every pair a, b begun on the one snapshot, each serialized after
//     the other: a conflict exactly when naiveConflict says so, else the fold
//     onto the committed one equals the serial replay.
//
// The key space is 1..3n+2: stable row i holds key 3(i+1), and each gap
// between stable keys (and either end) holds two insertable keys, so two
// inserts into one gap both collide and interleave, and a deleted key can be
// inserted again at its ghost's position.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pdtstore/internal/types"
)

// smallScope is one bounded-exhaustive run: every sequence of at most k ops
// after prefix, over a stable table of n rows. The prefix builds a tree of
// the given height.
type smallScope struct {
	name   string
	n, k   int
	prefix []logicalOp
	height int
}

// smallScopes are the runs: every table of up to 3 rows with up to 3 ops on a
// bare tree, then four prefixes over 3 rows with up to 2 ops on top — one
// that splits a leaf (height 2) and three that split an inner node (height
// 3): a run of inserts, a modify of every column of every row, and ghosts with
// inserts among them and a key inserted again. Short, and race, runs take up
// to 2 rows and 2 ops, and 1 op on the prefixes.
func smallScopes(short bool) []smallScope {
	n, k, deepK := 3, 3, 2
	if short {
		n, k, deepK = 2, 2, 1
	}
	var out []smallScope
	for rows := 0; rows <= n; rows++ {
		out = append(out, smallScope{name: fmt.Sprintf("n=%d", rows), n: rows, k: k, height: 1})
	}
	var inserts, modifies []logicalOp
	for i, key := range []int64{1, 2, 4, 5, 7, 8, 10, 11} {
		inserts = append(inserts, scopeIns(key, 90+i))
	}
	for i, key := range []int64{3, 6, 9} {
		for col := 1; col <= 3; col++ {
			modifies = append(modifies, scopeMod(key, col, 90+3*i+col))
		}
	}
	for _, p := range []smallScope{
		{name: "leaves", height: 2, prefix: []logicalOp{scopeIns(1, 90), scopeIns(4, 91), scopeMod(6, 1, 92), scopeIns(10, 93)}},
		{name: "inserts", height: 3, prefix: inserts},
		{name: "modifies", height: 3, prefix: modifies},
		{name: "ghosts", height: 3, prefix: []logicalOp{scopeDel(3), scopeDel(6), scopeIns(1, 90), scopeIns(4, 91), scopeIns(5, 92),
			scopeIns(3, 93), scopeMod(9, 1, 94), scopeMod(9, 2, 95), scopeMod(9, 3, 96), scopeIns(7, 97)}},
	} {
		p.n, p.k = 3, deepK
		out = append(out, p)
	}
	return out
}

var scopeSchema = stackSchema()

func scopeStable(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(3 * (i + 1))), types.Int(int64(i)), types.Str(fmt.Sprintf("s%d", i)), types.Float(float64(i) / 4)}
	}
	return rows
}

// scopeIns, scopeDel and scopeMod are the ops; tag sets the values they
// write, so that no two ops of a sequence write the same one.
func scopeIns(key int64, tag int) logicalOp {
	return logicalOp{kind: opInsert, key: key, row: types.Row{types.Int(key), types.Int(int64(40 + tag)),
		types.Str(scopeStrs[tag%11]), types.Float(float64(tag) / 2)}}
}

func scopeDel(key int64) logicalOp { return logicalOp{kind: opDelete, key: key} }

func scopeMod(key int64, col, tag int) logicalOp {
	v := []types.Value{1: types.Int(int64(60 + tag)), 2: types.Str(scopeStrs[11+tag%7]), 3: types.Float(float64(tag) + 0.25)}[col]
	return logicalOp{kind: opModify, key: key, col: col, val: v}
}

// scopeStrs are the strings ops write: i0..i10, then m0..m6.
var scopeStrs = []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8", "i9", "i10", "m0", "m1", "m2", "m3", "m4", "m5", "m6"}

// opsOn lists every op on image: an insert of each key of the key space not
// visible in it, and a delete and a modify of each data column of each row.
func (sc smallScope) opsOn(image []types.Row, tag int) []logicalOp {
	var ops []logicalOp
	for key := int64(1); key <= int64(3*sc.n+2); key++ {
		if len(image) == 0 || image[0][0].I != key {
			ops = append(ops, scopeIns(key, tag))
			continue
		}
		image = image[1:]
		ops = append(ops, scopeDel(key))
		for col := 1; col <= 3; col++ {
			ops = append(ops, scopeMod(key, col, tag))
		}
	}
	return ops
}

// each calls visit with every sequence of at most k ops on image, the empty
// one first, and the image it leaves; the ops of a sequence are tagged from
// tag on.
func (sc smallScope) each(t *testing.T, image []types.Row, k, tag int, seq []logicalOp, visit func([]logicalOp, []types.Row)) {
	visit(seq, image)
	if k == 0 {
		return
	}
	for _, op := range sc.opsOn(image, tag) {
		ref := &refModel{schema: scopeSchema, rows: slices.Clone(image)}
		replayByKey(t, ref, []logicalOp{op})
		sc.each(t, ref.rows, k-1, tag+1, append(seq[:len(seq):len(seq)], op), visit)
	}
}

// apply writes ops to p, whose image is image, validating p after each, and
// returns the image they leave.
func apply(t *testing.T, p *PDT, image []types.Row, ops []logicalOp) []types.Row {
	t.Helper()
	ref := &refModel{schema: scopeSchema, rows: slices.Clone(image)}
	for i := range ops {
		applyOpsByKey(t, p, ref, ops[i:i+1])
		if err := p.Validate(); err != nil {
			t.Fatalf("after %v: %v\n%s", ops[:i+1], err, p)
		}
	}
	return ref.rows
}

// scopeFilters are two filter chains for stackChain, taken in turn by the
// ranges: a range on a that keeps some stable rows and the first inserts, and
// a range on f, a string set on b and a range on a together.
var scopeFilters = [][]byte{{1, 6, 0, 40}, {7, 0, 0, 59, 2, 1, 1, 1}}

// checkScopeLayer holds one layer over stable, whose ops are ops, to image:
// Next over every range under both end rules, Select with a filter chain over
// every range under one of them (the two alternate), every projection, and
// SidToRid of every stable SID.
func checkScopeLayer(t *testing.T, p *PDT, stable, image []types.Row, ops []logicalOp) {
	t.Helper()
	n, layers := len(stable), []*PDT{p}
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			for _, end := range []bool{false, true} {
				cols := stackProjections[(lo+hi)%len(stackProjections)]
				checkStack(t, layers, stable, image, lo, hi, end, cols, []byte{1, 2, 1, 0})
				if end == ((lo+hi)%2 == 0) {
					checkSelect(t, layers, stable, lo, hi, end, cols, scopeFilters[lo%2], []byte{0, 4, 1, 3})
				}
			}
		}
	}
	for _, cols := range stackProjections {
		checkStack(t, layers, stable, image, 0, n, true, cols, []byte{3, 0, 1})
	}
	checkSidToRid(t, p, stable, image, ops)
}

// byKey orders a row of the scope's schema against a key.
func byKey(r types.Row, k int64) int { return cmp.Compare(r[0].I, k) }

// checkSidToRid holds SidToRid of every stable SID of p, whose ops are ops, to
// image.
func checkSidToRid(t *testing.T, p *PDT, stable, image []types.Row, ops []logicalOp) {
	t.Helper()
	for sid, row := range stable {
		// A stable row's first delete deletes it; an insert of its key after
		// that lands before its ghost.
		key := row[0].I
		ghost := slices.ContainsFunc(ops, func(op logicalOp) bool { return op.kind == opDelete && op.key == key })
		at, found := slices.BinarySearchFunc(image, key, byKey)
		if ghost && found {
			at++
		}
		if rid, g := p.SidToRid(uint64(sid)); rid != uint64(at) || g != ghost {
			t.Fatalf("%v: SidToRid(%d) = %d, %v; want %d, %v\n%s", ops, sid, rid, g, at, ghost, p)
		}
	}
}

// twin is ops writing other values: what a fork is written with, so that its
// writes and its origin's can be told apart.
func twin(ops []logicalOp) []logicalOp {
	other := func(v types.Value) types.Value {
		switch v.K {
		case types.Int64:
			return types.Int(-v.I - 1)
		case types.String:
			return types.Str(v.S + "'")
		}
		return types.Float(-v.F - 1)
	}
	out := slices.Clone(ops)
	for i, op := range out {
		if op.kind == opModify {
			out[i].val = other(op.val)
		}
		if op.kind == opInsert {
			out[i].row = types.Row{op.row[0], other(op.row[1]), other(op.row[2]), other(op.row[3])}
		}
	}
	return out
}

// checkScopeFork forks a layer written with a, then writes b to the origin
// and b's twin to the fork: each must hold its own model throughout.
func checkScopeFork(t *testing.T, stable []types.Row, a, b []logicalOp, imgA, imgAB []types.Row) {
	t.Helper()
	origin := New(scopeSchema, 3)
	apply(t, origin, stable, a)
	fork := origin.Snapshot()
	apply(t, origin, imgA, b)
	checkAgainstRef(t, fork, stable, &refModel{schema: scopeSchema, rows: imgA})
	imgFork := apply(t, fork, imgA, twin(b))
	checkAgainstRef(t, origin, stable, &refModel{schema: scopeSchema, rows: imgAB})
	checkAgainstRef(t, fork, stable, &refModel{schema: scopeSchema, rows: imgFork})
}

// checkScopeSerialize serializes x, written with xOps, after the committed y,
// written with yOps, both begun on stable.
func checkScopeSerialize(t *testing.T, stable []types.Row, xOps, yOps []logicalOp, x, y *PDT) {
	t.Helper()
	xs, err := x.SerializeChain([]*PDT{y})
	var conflict *ConflictError
	switch want := naiveConflict(xOps, yOps); {
	case want && !errors.As(err, &conflict):
		t.Fatalf("x %v after y %v: Serialize = %v, want a conflict", xOps, yOps, err)
	case !want && err != nil:
		t.Fatalf("x %v after y %v: Serialize = %v, want none", xOps, yOps, err)
	case !want:
		checkSerialExecution(t, scopeSchema, stable, xOps, yOps, xs)
	}
}

// run checks every sequence of the scope, and returns how many single
// sequences, two-layer folds and serialized pairs it checked.
func (sc smallScope) run(t *testing.T) (seqs, folds, pairs int) {
	stable := scopeStable(sc.n)
	p := New(scopeSchema, 3)
	base := apply(t, p, stable, sc.prefix)
	if depth, leaves := p.DepthAndLeaves(); depth != sc.height {
		t.Fatalf("the prefix builds a tree of height %d (%d leaves), not %d", depth, leaves, sc.height)
	}
	sc.each(t, base, sc.k, 0, nil, func(a []logicalOp, imgA []types.Row) {
		ops := append(slices.Clone(sc.prefix), a...)
		r := New(scopeSchema, 3)
		apply(t, r, stable, ops)
		checkScopeLayer(t, r, stable, imgA, ops)
		seqs++
		sc.each(t, imgA, sc.k-len(a), len(a), nil, func(b []logicalOp, imgAB []types.Row) {
			if len(b) == 0 {
				return
			}
			w := New(scopeSchema, 3)
			apply(t, w, imgA, b)
			checkFold(t, r, w, stable, &refModel{schema: scopeSchema, rows: imgAB})
			checkStack(t, []*PDT{r, w}, stable, imgAB, 0, len(stable), true, stackProjections[0], []byte{1, 2, 1, 0})
			checkScopeFork(t, stable, ops, b, imgA, imgAB)
			folds++
		})
		sc.each(t, stable, sc.k-len(a), 20, nil, func(b []logicalOp, _ []types.Row) {
			x := New(scopeSchema, 3)
			apply(t, x, stable, b)
			checkScopeSerialize(t, stable, b, ops, x, r)
			checkScopeSerialize(t, stable, ops, b, r, x)
			pairs++
		})
	})
	return seqs, folds, pairs
}

// TestSmallScope runs every scope; -short, and the race detector, shrink
// them.
func TestSmallScope(t *testing.T) {
	for _, sc := range smallScopes(testing.Short() || raceBuild) {
		t.Run(sc.name, func(t *testing.T) {
			seqs, folds, pairs := sc.run(t)
			t.Logf("k=%d: %d sequences, %d folds, %d serialized pairs", sc.k, seqs, folds, pairs)
		})
	}
}
