package pdt

// Randomized equivalence tests: a PDT driven by arbitrary update sequences
// must always agree with the naive row-slice reference model, and must pass
// the full invariant audit after every mutation.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pdtstore/internal/types"
)

// opKind enumerates random operations.
type opKind int

const (
	opInsert opKind = iota
	opDelete
	opModify
)

// randomOps drives n random updates against both p and ref, validating after
// each. keys are int64; schema is intSchema (k, a, b) sorted on k.
func randomOps(t *testing.T, rng *rand.Rand, p *PDT, ref *refModel, n int, validateEach bool) {
	t.Helper()
	usedKeys := map[int64]bool{}
	for _, r := range ref.rows {
		usedKeys[r[0].I] = true
	}
	for i := 0; i < n; i++ {
		op := opKind(rng.Intn(3))
		if len(ref.rows) == 0 {
			op = opInsert
		}
		switch op {
		case opInsert:
			var key int64
			for {
				key = int64(rng.Intn(10 * (n + 10)))
				if !usedKeys[key] {
					break
				}
			}
			usedKeys[key] = true
			row := types.Row{types.Int(key), types.Int(int64(i)), types.Str(fmt.Sprintf("v%d", i))}
			applyInsert(t, p, ref, row)
		case opDelete:
			rid := rng.Intn(len(ref.rows))
			delete(usedKeys, ref.rows[rid][0].I)
			applyDelete(t, p, ref, rid)
		case opModify:
			rid := rng.Intn(len(ref.rows))
			col := 1 + rng.Intn(2)
			var v types.Value
			if col == 1 {
				v = types.Int(int64(rng.Intn(1000)))
			} else {
				v = types.Str(fmt.Sprintf("m%d", rng.Intn(100)))
			}
			applyModify(t, p, ref, rid, col, v)
		}
		if validateEach {
			if err := p.Validate(); err != nil {
				t.Fatalf("after op %d: %v\n%s", i, err, p)
			}
		}
	}
}

func TestRandomizedAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema := intSchema()
			stable := buildIntTable(40)
			// scale stable keys to spread: buildIntTable gives keys 10..400
			p := New(schema, 4)
			ref := newRefModel(schema, stable)
			randomOps(t, rng, p, ref, 300, true)
			checkAgainstRef(t, p, stable, ref)
		})
	}
}

func TestRandomizedLargeBatchSparseValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := intSchema()
	stable := buildIntTable(200)
	p := New(schema, DefaultFanout)
	ref := newRefModel(schema, stable)
	randomOps(t, rng, p, ref, 3000, false)
	checkAgainstRef(t, p, stable, ref)
}

func TestQuickSIDRIDUniqueness(t *testing.T) {
	// Theorem 1: after arbitrary updates, no two non-modify entries share
	// (SID,RID), SIDs and RIDs are separately non-decreasing, and for every
	// visible tuple RID = SID + delta-before holds (checked via merge).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := intSchema()
		stable := buildIntTable(20)
		p := New(schema, 4)
		ref := newRefModel(schema, stable)
		randomOps(t, rng, p, ref, 120, false)
		if err := p.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		es := p.Entries()
		for i := 1; i < len(es); i++ {
			if es[i].SID < es[i-1].SID || es[i].RID < es[i-1].RID {
				return false
			}
			if es[i].SID == es[i-1].SID && es[i].RID == es[i-1].RID {
				// only modify entries of distinct columns may collide
				if es[i].ModColumn() < 0 || es[i-1].ModColumn() < 0 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := intSchema()
		stable := buildIntTable(30)
		p := New(schema, 3+rng.Intn(6))
		ref := newRefModel(schema, stable)
		randomOps(t, rng, p, ref, 150, false)
		out := mergeAll(t, p, stable)
		if out.Len() != len(ref.rows) {
			return false
		}
		for i := range ref.rows {
			if types.CompareRows(out.Row(i), ref.rows[i]) != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSidToRidConsistency(t *testing.T) {
	// For every stable SID, SidToRid must point at the merged position of
	// that tuple (or, for ghosts, of its successor).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := intSchema()
		stable := buildIntTable(25)
		p := New(schema, 4)
		ref := newRefModel(schema, stable)
		randomOps(t, rng, p, ref, 100, false)

		// Build key -> merged rid map from the reference.
		ridOf := map[int64]int{}
		for i, r := range ref.rows {
			ridOf[r[0].I] = i
		}
		for sid, srow := range stable {
			rid, ghost := p.SidToRid(uint64(sid))
			want, alive := ridOf[srow[0].I]
			// A key may be deleted and re-inserted; re-insertion makes it
			// alive again but as a *new* tuple, so only check non-ghosts
			// whose identity is unambiguous.
			if !ghost {
				if !alive || int(rid) != want {
					return false
				}
			} else if alive {
				// ghost whose key was re-inserted: the re-inserted copy can
				// be anywhere; just check rid is within bounds.
				if int(rid) > len(ref.rows) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSnapshotEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := intSchema()
		stable := buildIntTable(15)
		p := New(schema, 4)
		ref := newRefModel(schema, stable)
		randomOps(t, rng, p, ref, 80, false)
		cp := p.Snapshot()
		if err := cp.Validate(); err != nil {
			return false
		}
		a, b := p.Entries(), cp.Entries()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDeleteReinsertSameKey(t *testing.T) {
	// Deleting a stable tuple and re-inserting the same key must work: the
	// new insert ties with the ghost and lands beside it.
	schema := intSchema()
	stable := buildIntTable(5) // keys 10..50
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	applyDelete(t, p, ref, 2) // key 30
	applyInsert(t, p, ref, types.Row{types.Int(30), types.Int(99), types.Str("re")})
	checkAgainstRef(t, p, stable, ref)
	// And delete it again.
	applyDelete(t, p, ref, 2)
	checkAgainstRef(t, p, stable, ref)
}

func TestManyGhostsThenInsertsBetween(t *testing.T) {
	// Delete a run of stable tuples, then insert keys that interleave with
	// the ghosts: SKRidToSid must order each insert among the ghosts.
	schema := intSchema()
	stable := buildIntTable(10) // keys 10..100
	p := New(schema, 4)
	ref := newRefModel(schema, stable)
	for i := 0; i < 4; i++ { // delete keys 30,40,50,60 (rid 2 four times)
		applyDelete(t, p, ref, 2)
	}
	for _, k := range []int64{45, 35, 55, 31, 59} {
		applyInsert(t, p, ref, types.Row{types.Int(k), types.Int(k), types.Str("g")})
	}
	checkAgainstRef(t, p, stable, ref)
	// Inserted keys must carry ghost-respecting SIDs: 31,35 before ghost 40
	// (SID 3), 45 before ghost 50 (SID 4), 55,59 before ghost 60 (SID 5).
	wantSID := map[int64]uint64{31: 3, 35: 3, 45: 4, 55: 5, 59: 5}
	for _, e := range p.Entries() {
		if e.IsInsert() {
			k := p.EntryTuple(e)[0].I
			if e.SID != wantSID[k] {
				t.Errorf("insert key %d got SID %d, want %d", k, e.SID, wantSID[k])
			}
		}
	}
}
