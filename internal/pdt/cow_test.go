package pdt

// Differential tests for the copy-on-write snapshot scheme: a Snapshot taken
// at any point must behave exactly like a deep copy — frozen at the moment it
// was taken, unaffected by any later mutation of the live tree (and
// vice versa: mutating a fork must never leak into the tree it forked from).

import (
	"math/rand"
	"testing"

	"pdtstore/internal/types"
)

func cowSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.Int64},
	}, []int{0})
}

// sameEntries holds a PDT to a (deep-cloned, see snapshotDump) dump:
// positions, kinds, and payload values must match. Value-space offsets may
// differ (FoldSnap and Snapshot reallocate payload tables), so only logical
// content is compared.
func sameEntries(t *testing.T, label string, got *PDT, want []RebuildEntry) {
	t.Helper()
	if d := got.Dump(); !dumpsEqual(d, want) {
		t.Fatalf("%s: entries differ\n got %v\nwant %v", label, d, want)
	}
}

// randomMutation applies one random update to p, whose visible row count is
// *visible; keys are drawn from a dense counter so inserts never collide.
func randomMutation(t *testing.T, rng *rand.Rand, p *PDT, visible *int64, nextKey *int64) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 5 || *visible == 0: // insert
		rid := uint64(rng.Int63n(*visible + 1))
		*nextKey++
		if err := p.Insert(rid, types.Row{types.Int(*nextKey), types.Int(rng.Int63n(100)), types.Int(0)}); err != nil {
			t.Fatal(err)
		}
		*visible++
	case op < 8: // modify a visible tuple
		rid := uint64(rng.Int63n(*visible))
		col := 1 + rng.Intn(2)
		if err := p.Modify(rid, col, types.Int(rng.Int63n(1000))); err != nil {
			t.Fatal(err)
		}
	default: // delete a visible tuple
		rid := uint64(rng.Int63n(*visible))
		// The ghost key is required; use a synthetic key — the PDT does not
		// check it against the (absent) stable image.
		if err := p.Delete(rid, types.Row{types.Int(rng.Int63n(1 << 30))}); err != nil {
			t.Fatal(err)
		}
		*visible--
	}
}

// TestSnapshotDifferential interleaves random mutations with Snapshot calls:
// every snapshot must stay identical to the deep-cloned dump taken at the
// same instant, no matter how the live tree mutates afterwards.
func TestSnapshotDifferential(t *testing.T) {
	schema := cowSchema()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(schema, 0)
		visible := int64(1000)
		nextKey := int64(1 << 30)

		type pair struct {
			snap *PDT
			want []RebuildEntry
			at   int
		}
		var pairs []pair
		const steps = 400
		for i := 0; i < steps; i++ {
			randomMutation(t, rng, p, &visible, &nextKey)
			if rng.Intn(25) == 0 {
				pairs = append(pairs, pair{snap: p.Snapshot(), want: snapshotDump(p), at: i})
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: live tree invalid: %v", seed, err)
		}
		for _, pr := range pairs {
			if err := pr.snap.Validate(); err != nil {
				t.Fatalf("seed %d: snapshot at step %d invalid: %v", seed, pr.at, err)
			}
			sameEntries(t, "snapshot vs deep copy", pr.snap, pr.want)
		}
	}
}

// TestSnapshotMutateFork checks isolation in the other direction: mutating a
// snapshot (as FoldSnap does when it forks the Read-PDT) must never change
// the tree it was taken from.
func TestSnapshotMutateFork(t *testing.T) {
	schema := cowSchema()
	for seed := int64(100); seed < 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(schema, 0)
		visible := int64(500)
		nextKey := int64(1 << 30)
		for i := 0; i < 200; i++ {
			randomMutation(t, rng, p, &visible, &nextKey)
		}
		frozen := snapshotDump(p) // reference for p's state
		snap := p.Snapshot()

		// Mutate the snapshot heavily; p must not move.
		snapVisible, snapKey := visible, nextKey+1<<20
		for i := 0; i < 200; i++ {
			randomMutation(t, rng, snap, &snapVisible, &snapKey)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("seed %d: mutated snapshot invalid: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: base invalid after snapshot mutation: %v", seed, err)
		}
		sameEntries(t, "base after snapshot mutation", p, frozen)

		// And the other way: mutate p, the (already diverged) snapshot's
		// content must not move either.
		snapRef := snapshotDump(snap)
		for i := 0; i < 200; i++ {
			randomMutation(t, rng, p, &visible, &nextKey)
		}
		sameEntries(t, "snapshot after base mutation", snap, snapRef)
	}
}

// TestFoldSnapDifferential checks the adaptive fold against the bulk fold on
// random inputs spanning both sides of the cutover ratio.
func TestFoldSnapDifferential(t *testing.T) {
	schema := cowSchema()
	for seed := int64(200); seed < 208; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := New(schema, 0)
		visible := int64(2000)
		nextKey := int64(1 << 30)
		for i := 0; i < 300; i++ {
			randomMutation(t, rng, base, &visible, &nextKey)
		}
		// w sizes from tiny (per-entry path) to large (bulk fallback).
		wSteps := []int{1, 5, 60, 500}[seed%4]
		w := New(schema, 0)
		wVisible, wKey := visible, nextKey+1<<20
		for i := 0; i < wSteps; i++ {
			randomMutation(t, rng, w, &wVisible, &wKey)
		}

		baseRef := snapshotDump(base)
		wRef := snapshotDump(w)
		got, err := FoldSnap(base, w)
		if err != nil {
			t.Fatalf("seed %d: FoldSnap: %v", seed, err)
		}
		want, err := Fold(base, w)
		if err != nil {
			t.Fatalf("seed %d: Fold: %v", seed, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: FoldSnap output invalid: %v", seed, err)
		}
		sameEntries(t, "FoldSnap vs Fold", got, want.Dump())
		// Both inputs must be untouched.
		sameEntries(t, "fold base preserved", base, baseRef)
		sameEntries(t, "fold layer preserved", w, wRef)
	}
}
