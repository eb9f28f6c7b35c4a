package pdt

// Differential tests for the three downward merges. Over every two-layer mix
// the propagate and serialize suites generate, the bulk Fold must produce a
// Validate()-clean tree with a Dump() identical to the per-entry reference,
// Algorithm 7 (Propagate) run on a Snapshot of the base — payload-level
// equality; value-space offsets legitimately differ because Fold compacts
// orphaned slots away — FoldSnap must agree with both, and both inputs must be
// bit-for-bit untouched afterwards.

import (
	"testing"

	"pdtstore/internal/types"
)

// snapshotDump deep-clones a Dump so later in-place payload mutation of the
// source tree (the bug Fold must not have) cannot hide behind aliasing.
func snapshotDump(t *PDT) []RebuildEntry {
	out := t.Dump()
	for i := range out {
		out[i].Ins = out[i].Ins.Clone()
		out[i].Del = out[i].Del.Clone()
	}
	return out
}

func dumpsEqual(a, b []RebuildEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SID != b[i].SID || a[i].Kind != b[i].Kind ||
			types.CompareRows(a[i].Ins, b[i].Ins) != 0 ||
			types.CompareRows(a[i].Del, b[i].Del) != 0 ||
			types.Compare(a[i].Mod, b[i].Mod) != 0 {
			return false
		}
	}
	return true
}

// checkFold runs Fold(base, w), cross-checks it against Snapshot+Propagate
// and FoldSnap, and returns the folded tree. It is how every test of the
// propagate and serialize suites folds a layer, so the whole
// randomized/directed set exercises all three merges on the same inputs.
func checkFold(t *testing.T, base, w *PDT, stable []types.Row, ref *refModel) *PDT {
	t.Helper()
	baseBefore := snapshotDump(base)
	wBefore := snapshotDump(w)

	out, err := Fold(base, w)
	if err != nil {
		t.Fatalf("fold: %v", err)
	}
	expected := base.Snapshot()
	if err := expected.Propagate(w); err != nil {
		t.Fatalf("reference propagate: %v", err)
	}
	snap, err := FoldSnap(base, w)
	if err != nil {
		t.Fatalf("foldsnap: %v", err)
	}
	ei, ed, em := expected.Counts()
	for _, got := range []struct {
		name string
		p    *PDT
	}{{"fold", out}, {"propagate", expected}, {"foldsnap", snap}} {
		if err := got.p.Validate(); err != nil {
			t.Fatalf("%s result invalid: %v\n%s", got.name, err, got.p)
		}
		if !dumpsEqual(got.p.Dump(), expected.Dump()) {
			t.Fatalf("%s dump differs from propagate dump\n%s: %s\npropagate: %s", got.name, got.name, got.p, expected)
		}
		gi, gd, gm := got.p.Counts()
		if gi != ei || gd != ed || gm != em || got.p.Delta() != expected.Delta() {
			t.Fatalf("%s counters (%d,%d,%d,%+d) differ from propagate (%d,%d,%d,%+d)",
				got.name, gi, gd, gm, got.p.Delta(), ei, ed, em, expected.Delta())
		}
		if ref != nil {
			checkAgainstRef(t, got.p, stable, ref)
		}
	}

	if !dumpsEqual(base.Dump(), baseBefore) {
		t.Fatalf("fold mutated its base layer\nbase now: %s", base)
	}
	if !dumpsEqual(w.Dump(), wBefore) {
		t.Fatalf("fold mutated its upper layer\nw now: %s", w)
	}
	return out
}

// TestFoldSharesUnrewrittenPayloads pins the cheap-copy property the online
// maintenance path depends on: folded output shares insert rows with its
// inputs where no rewrite happened, and clones exactly the rewrite case, so
// installing a folded Read-PDT version never deep-copies the layer.
func TestFoldSharesUnrewrittenPayloads(t *testing.T) {
	schema := intSchema()
	stable := buildIntTable(8)
	row := func(k int64) types.Row {
		return types.Row{types.Int(k), types.Int(k), types.Str("r")}
	}
	base := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyInsert(t, base, ref, row(15)) // untouched by w: may be shared
	applyInsert(t, base, ref, row(45)) // rewritten by w: must be cloned
	w := New(schema, 4)
	wref := newRefModel(schema, ref.rows)
	applyModify(t, w, wref, 5, 1, types.Int(-9)) // visible index of key 45

	out, err := Fold(base, w)
	if err != nil {
		t.Fatal(err)
	}
	var shared, cloned bool
	for _, e := range out.Entries() {
		if !e.IsInsert() {
			continue
		}
		outRow := out.vals.ins[e.Val]
		switch outRow[0].I {
		case 15:
			shared = &outRow[0] == &base.vals.ins[0][0]
		case 45:
			cloned = &outRow[0] != &base.vals.ins[1][0]
			if outRow[1].I != -9 {
				t.Fatalf("rewritten insert carries %v, want -9", outRow[1])
			}
			if base.vals.ins[1][1].I != 45 {
				t.Fatalf("fold rewrote base's stored row in place: %v", base.vals.ins[1])
			}
		}
	}
	if !shared {
		t.Fatal("untouched insert row was deep-copied instead of shared")
	}
	if !cloned {
		t.Fatal("rewritten insert row is still shared with the base layer")
	}
}
