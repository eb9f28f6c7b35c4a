package pdt

// Random walks over the small-scope check's ops (scopeIns, scopeDel,
// scopeMod over the key space 1..3n+2) at sizes its sweep cannot reach: wide
// tables, hundreds or thousands of ops, fanouts 3 to DefaultFanout and trees
// many levels deep. A walk only draws the inputs: every verdict comes from the
// checkers and the row model (refModel) the sweep uses.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdtstore/internal/types"
)

// walk draws n ops on image, each on a key drawn from the scope's key space:
// an insert where the key is not visible, else a delete or a modify of one of
// the three data columns, each writing values drawn at random. It returns them
// and the image they leave.
func (sc smallScope) walk(t *testing.T, rng *rand.Rand, image []types.Row, n int) ([]logicalOp, []types.Row) {
	t.Helper()
	ref := &refModel{schema: scopeSchema, rows: slices.Clone(image)}
	ops := make([]logicalOp, n)
	for i := range ops {
		key, tag, c := 1+rng.Int63n(int64(3*sc.n+2)), rng.Intn(1<<20), rng.Intn(4)
		switch _, found := slices.BinarySearchFunc(ref.rows, key, byKey); {
		case !found:
			ops[i] = scopeIns(key, tag)
		case c == 0:
			ops[i] = scopeDel(key)
		default:
			ops[i] = scopeMod(key, c, tag)
		}
		replayByKey(t, ref, ops[i:i+1])
	}
	return ops, ref.rows
}

// walkLayer writes a walk of n ops on image to a new PDT of the given fanout,
// validating after every op unless sparse, and returns the PDT, the ops and
// the image they leave.
func (sc smallScope) walkLayer(t *testing.T, rng *rand.Rand, fanout int, image []types.Row, n int, sparse bool) (*PDT, []logicalOp, []types.Row) {
	t.Helper()
	ops, img := sc.walk(t, rng, image, n)
	p := New(scopeSchema, fanout)
	if sparse {
		applyOpsByKey(t, p, &refModel{schema: scopeSchema, rows: slices.Clone(image)}, ops)
	} else {
		apply(t, p, image, ops)
	}
	return p, ops, img
}

func model(rows []types.Row) *refModel { return &refModel{schema: scopeSchema, rows: rows} }

func TestRandomizedAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc, stable := smallScope{n: 40}, scopeStable(40)
			p, ops, img := sc.walkLayer(t, rand.New(rand.NewSource(seed)), 4, stable, 300, false)
			checkAgainstRef(t, p, stable, model(img))
			checkSidToRid(t, p, stable, img, ops)
		})
	}
}

func TestRandomizedLargeBatchSparseValidate(t *testing.T) {
	sc, stable := smallScope{n: 200}, scopeStable(200)
	p, ops, img := sc.walkLayer(t, rand.New(rand.NewSource(42)), DefaultFanout, stable, 3000, true)
	checkAgainstRef(t, p, stable, model(img))
	checkSidToRid(t, p, stable, img, ops)
}

// TestQuickSIDRIDUniqueness checks Theorem 1 on the entry sequence itself:
// SIDs and RIDs are each non-decreasing, and only modifies of distinct
// columns share a (SID, RID).
func TestQuickSIDRIDUniqueness(t *testing.T) {
	sc, stable := smallScope{n: 20}, scopeStable(20)
	for seed := int64(0); seed < 20; seed++ {
		p, _, _ := sc.walkLayer(t, rand.New(rand.NewSource(seed)), 4, stable, 120, true)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		es := p.Entries()
		for i := 1; i < len(es); i++ {
			a, b := es[i-1], es[i]
			if b.SID < a.SID || b.RID < a.RID ||
				(b.SID == a.SID && b.RID == a.RID && (a.ModColumn() < 0 || b.ModColumn() < 0 || a.ModColumn() == b.ModColumn())) {
				t.Fatalf("seed %d: entry %d %v after %v\n%s", seed, i, b, a, p)
			}
		}
	}
}

// TestQuickMergeMatchesReference reads each walk through MergeScan over the
// whole table under every projection, and over a random range.
func TestQuickMergeMatchesReference(t *testing.T) {
	sc, stable := smallScope{n: 30}, scopeStable(30)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, _, img := sc.walkLayer(t, rng, 3+rng.Intn(6), stable, 150, true)
		layers := []*PDT{p}
		for _, cols := range stackProjections {
			checkStack(t, layers, stable, img, 0, len(stable), true, cols, []byte{1, 2, 1, 0})
		}
		lo := rng.Intn(len(stable) + 1)
		hi := lo + rng.Intn(len(stable)+1-lo)
		cols := stackProjections[rng.Intn(len(stackProjections))]
		checkStack(t, layers, stable, img, lo, hi, rng.Intn(2) == 0, cols, []byte{3, 0, 5})
		checkSelect(t, layers, stable, lo, hi, true, cols, scopeFilters[seed%2], []byte{0, 4, 1, 3})
	}
}

func TestQuickSidToRidConsistency(t *testing.T) {
	sc, stable := smallScope{n: 25}, scopeStable(25)
	for seed := int64(0); seed < 15; seed++ {
		p, ops, img := sc.walkLayer(t, rand.New(rand.NewSource(seed)), 4, stable, 100, true)
		checkSidToRid(t, p, stable, img, ops)
	}
}

func TestQuickSnapshotEquivalence(t *testing.T) {
	sc, stable := smallScope{n: 15}, scopeStable(15)
	for seed := int64(0); seed < 15; seed++ {
		p, _, img := sc.walkLayer(t, rand.New(rand.NewSource(seed)), 4, stable, 80, true)
		cp := p.Snapshot()
		if !slices.Equal(cp.Entries(), p.Entries()) {
			t.Fatalf("seed %d: snapshot entries %v, origin %v", seed, cp.Entries(), p.Entries())
		}
		checkAgainstRef(t, cp, stable, model(img))
	}
}

// TestSnapshotDifferential takes snapshots along a walk: each must keep the
// dump and the image of the moment it was taken, however the live tree moves
// on.
func TestSnapshotDifferential(t *testing.T) {
	sc, stable := smallScope{n: 60}, scopeStable(60)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops, _ := sc.walk(t, rng, stable, 400)
		type frozen struct {
			snap  *PDT
			dump  []RebuildEntry
			image []types.Row
		}
		var snaps []frozen
		p, img := New(scopeSchema, DefaultFanout), stable
		for i := range ops {
			img = apply(t, p, img, ops[i:i+1])
			if rng.Intn(25) == 0 {
				snaps = append(snaps, frozen{p.Snapshot(), snapshotDump(p), img})
			}
		}
		for _, f := range snaps {
			if !dumpsEqual(f.snap.Dump(), f.dump) {
				t.Fatalf("seed %d: snapshot moved with its origin\n%s", seed, f.snap)
			}
			checkAgainstRef(t, f.snap, stable, model(f.image))
		}
	}
}

// TestSnapshotMutateFork writes a long walk to an origin and its twin to a
// fork of it (checkScopeFork): neither may see the other's writes.
func TestSnapshotMutateFork(t *testing.T) {
	sc, stable := smallScope{n: 50}, scopeStable(50)
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, imgA := sc.walk(t, rng, stable, 200)
		b, imgAB := sc.walk(t, rng, imgA, 200)
		checkScopeFork(t, stable, a, b, imgA, imgAB)
	}
}

// TestFoldSnapDifferential folds layers from one op (FoldSnap's per-entry
// path) to more than the base holds (its bulk fallback).
func TestFoldSnapDifferential(t *testing.T) {
	sc, stable := smallScope{n: 100}, scopeStable(100)
	for seed := int64(200); seed < 208; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, _, imgA := sc.walkLayer(t, rng, DefaultFanout, stable, 300, true)
		w, _, imgAB := sc.walkLayer(t, rng, DefaultFanout, imgA, []int{1, 5, 60, 500}[seed%4], true)
		checkFold(t, base, w, stable, model(imgAB))
	}
}

func TestBulkPropagateRandomized(t *testing.T) {
	sc, stable := smallScope{n: 40}, scopeStable(40)
	for _, fanout := range []int{3, 4, DefaultFanout} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("fanout=%d/seed=%d", fanout, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base, _, imgA := sc.walkLayer(t, rng, fanout, stable, 150, false)
				w, _, imgAB := sc.walkLayer(t, rng, fanout, imgA, 120, false)
				checkFold(t, base, w, stable, model(imgAB))
			})
		}
	}
}

func TestBulkPropagateLargeMix(t *testing.T) {
	sc, stable := smallScope{n: 300}, scopeStable(300)
	rng := rand.New(rand.NewSource(99))
	base, _, imgA := sc.walkLayer(t, rng, DefaultFanout, stable, 2000, true)
	w, _, imgAB := sc.walkLayer(t, rng, DefaultFanout, imgA, 1500, true)
	checkFold(t, base, w, stable, model(imgAB))
}

// TestPropagateRandomizedEquivalence reads two layers through a stacked
// merge, which must equal their fold read through one.
func TestPropagateRandomizedEquivalence(t *testing.T) {
	sc, stable := smallScope{n: 25}, scopeStable(25)
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lower, _, imgA := sc.walkLayer(t, rng, 4, stable, 60, false)
		upper, _, imgAB := sc.walkLayer(t, rng, 4, imgA, 60, false)
		checkStack(t, []*PDT{lower, upper}, stable, imgAB, 0, len(stable), true, stackProjections[0], []byte{1, 2, 1, 0})
		checkFold(t, lower, upper, stable, model(imgAB))
	}
}

// TestSerializeRandomizedAgainstNaive serializes pairs of walks begun on one
// snapshot, each after the other: a conflict exactly when naiveConflict says
// so, else the serial replay.
func TestSerializeRandomizedAgainstNaive(t *testing.T) {
	sc, stable := smallScope{n: 30}, scopeStable(30)
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 500))
			x, xOps, _ := sc.walkLayer(t, rng, 4, stable, 8, false)
			y, yOps, _ := sc.walkLayer(t, rng, 4, stable, 8, false)
			checkScopeSerialize(t, stable, xOps, yOps, x, y)
			checkScopeSerialize(t, stable, yOps, xOps, y, x)
		})
	}
}
