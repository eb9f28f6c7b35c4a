package engine_test

// Black-box tests for PruneBlocks through its real producers: tables whose
// stores carry zone maps, with and without unfolded PDT deltas. The
// invariants under test are the ones correctness hangs on — a block any
// pinned layer touches is never skipped, entries at the scan-end boundary
// keep the final block (appends ride it), and truncated string zones never
// exclude a value the true block max could still reach.

import (
	"strings"
	"testing"

	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

func prune(t *testing.T, tbl *table.Table, preds ...engine.Pred) *engine.PruneResult {
	t.Helper()
	ps, err := tbl.PartitionScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Prune == nil {
		t.Fatal("PartitionScan offered no Prune hook")
	}
	return ps.Prune(preds)
}

// TestPruneBlocksCleanImage: with no deltas, zone maps alone cut a clustered
// range predicate down to exactly the overlapping blocks.
func TestPruneBlocksCleanImage(t *testing.T) {
	tbl, err := table.Load(testSchema, testRows(100), table.Options{Mode: table.ModePDT, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Keys are 2*SID: [64, 94] covers SIDs 32..47 — block 2 alone.
	res := prune(t, tbl, engine.Pred{Col: 0, Op: engine.PredInt64Range, ILo: 64, IHi: 94})
	if res == nil {
		t.Fatal("pruning declined on a clean image")
	}
	if res.Total != 7 || res.Kept != 1 || res.ZoneSkips != 6 {
		t.Fatalf("prune result = %+v, want 1 of 7 blocks kept", res)
	}
	if len(res.Ranges) != 1 || res.Ranges[0] != (engine.SIDRange{Lo: 32, Hi: 48}) {
		t.Fatalf("ranges = %v, want [{32 48}]", res.Ranges)
	}
	// No typed predicate → no pruning to do.
	if res := prune(t, tbl); res != nil {
		t.Fatalf("pruning with no predicates = %+v, want nil", res)
	}
}

// TestPruneBlocksDirtyGate: an in-place update makes its block unskippable,
// even when the stable zone says the predicate cannot match there — that is
// precisely where the new value lives.
func TestPruneBlocksDirtyGate(t *testing.T) {
	tbl := loadUpdated(t, table.ModePDT) // updates key 10 (SID 5, block 0): a=42
	// Stable column a holds 0..6 everywhere, so every zone excludes a=42;
	// only the delta-dirtied blocks may be kept.
	res := prune(t, tbl, engine.Pred{Col: 1, Op: engine.PredInt64Range, ILo: 42, IHi: 42, Eq: true})
	if res == nil {
		t.Fatal("pruning declined")
	}
	if res.Kept == 0 || res.Kept == res.Total {
		t.Fatalf("prune result = %+v, want partial keep", res)
	}
	keptBlock0 := false
	for _, r := range res.Ranges {
		if r.Lo == 0 && r.Hi >= 16 {
			keptBlock0 = true
		}
	}
	if !keptBlock0 {
		t.Fatalf("block 0 carries the a=42 update but was pruned: %v", res.Ranges)
	}
	// And the scan must surface the updated row despite the hostile zones.
	got := fingerprint(t, engine.Scan(tbl, 0, 1).FilterInt64Eq(1, 42), 2)
	want := fingerprint(t, engine.Scan(tbl, 0, 1).FilterInt64Eq(1, 42).NoPrune(), 2)
	if got != want || !strings.Contains(got, "10|") {
		t.Fatalf("pruned scan lost the updated row:\npruned:\n%s\nfull:\n%s", got, want)
	}
}

// TestPruneBlocksAppendBoundary: entries at SID == scan end (appends beyond
// the stable image) ride the final block's morsel, so that block must stay
// kept even when every zone excludes the predicate.
func TestPruneBlocksAppendBoundary(t *testing.T) {
	tbl, err := table.Load(testSchema, testRows(100), table.Options{Mode: table.ModePDT, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Append beyond the stable key domain (stable max key is 198).
	if _, err := tbl.ApplyBatch([]table.Op{{Kind: table.OpInsert, Row: types.Row{types.Int(301), types.Int(99), types.Float(0), types.Str("app")}}}); err != nil {
		t.Fatal(err)
	}
	res := prune(t, tbl, engine.Pred{Col: 0, Op: engine.PredInt64Range, ILo: 300, IHi: 310})
	if res == nil {
		t.Fatal("pruning declined")
	}
	if res.Kept != 1 {
		t.Fatalf("prune result = %+v, want exactly the final block kept for the append", res)
	}
	last := res.Ranges[len(res.Ranges)-1]
	if last.Hi != 100 {
		t.Fatalf("kept ranges %v do not reach the scan end", res.Ranges)
	}
	got := fingerprint(t, engine.Scan(tbl, 0, 3).FilterInt64Range(0, 300, 310), 2)
	if got != "301|app|\n" {
		t.Fatalf("pruned scan over the appended row = %q", got)
	}
}

// TestPruneBlocksTruncatedStringZone: a stored string max longer than the
// zone budget is truncated; values extending the truncated max may still be
// in the block and must not be zone-skipped.
func TestPruneBlocksTruncatedStringZone(t *testing.T) {
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "s", Kind: types.String},
	}, []int{0})
	long := strings.Repeat("m", 80) // truncated to 64 bytes in the zone
	rows := make([]types.Row, 32)
	for i := range rows {
		s := "b"
		if i >= 16 {
			s = long // block 1's max (and min) truncate
		}
		rows[i] = types.Row{types.Int(int64(i)), types.Str(s)}
	}
	tbl, err := table.Load(schema, rows, table.Options{Mode: table.ModePDT, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The probe extends the truncated max: block 1 must stay kept, block 0
	// (untruncated zone ["b","b"]) is provably clear.
	res := prune(t, tbl, engine.Pred{Col: 1, Op: engine.PredStrEq, Strs: []string{long}, Eq: true})
	if res == nil || res.Kept != 1 || len(res.Ranges) != 1 || res.Ranges[0].Lo != 16 {
		t.Fatalf("prune result = %+v (ranges %v), want only block 1 kept", res, res.Ranges)
	}
	got := fingerprint(t, engine.Scan(tbl, 0, 1).FilterStrEq(1, long), 2)
	want := fingerprint(t, engine.Scan(tbl, 0, 1).FilterStrEq(1, long).NoPrune(), 2)
	if got != want || strings.Count(got, "\n") != 16 {
		t.Fatalf("truncated-zone scan wrong:\npruned:\n%s\nfull:\n%s", got, want)
	}
	// A probe sorting past every truncated extension is safely excluded.
	res = prune(t, tbl, engine.Pred{Col: 1, Op: engine.PredStrEq, Strs: []string{"zzz"}, Eq: true})
	if res == nil || res.Kept != 0 {
		t.Fatalf("prune result for out-of-range probe = %+v, want nothing kept", res)
	}
}

// TestPruneRespectsKillSwitches: the per-plan NoPrune opt-out forces the full
// access path — same rows, no block skipped — and is the only switch there
// is: the plan next to it still prunes.
func TestPruneRespectsKillSwitches(t *testing.T) {
	tbl, err := table.Load(testSchema, testRows(100), table.Options{Mode: table.ModePDT, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	dev := tbl.Store().Device()
	z0, i0 := dev.SkipStats()
	base := fingerprint(t, engine.Scan(tbl, 0, 1).FilterInt64Range(0, 64, 94).NoPrune(), 2)
	if z1, i1 := dev.SkipStats(); z1 != z0 || i1 != i0 {
		t.Fatal("NoPrune scan touched the skip counters")
	}
	if got := fingerprint(t, engine.Scan(tbl, 0, 1).FilterInt64Range(0, 64, 94), 2); got != base {
		t.Fatal("pruned scan output differs")
	}
	if z1, _ := dev.SkipStats(); z1 <= z0 {
		t.Fatal("the pruning plan skipped nothing")
	}
}
