package tpch

// Pruning differential over the whole workload: every TPC-H query must give
// byte-identical answers with pre-scan block pruning on (zone maps plus
// secondary indexes over every non-float column of every table) as with
// every plan opted out of it (DB.NoPrune) — across refresh-stream update
// histories, and on one worker as on several (DB.Workers). This is the suite that
// keeps "skip this block" honest: any zone or summary that lies about its
// block's contents changes a query fingerprint here.

import (
	"testing"

	"pdtstore/internal/index"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

// attachIndexes builds a secondary-index set over every non-Float64 column of
// every table's stable image and attaches it as the store sidecar.
func attachIndexes(t *testing.T, db *DB) {
	t.Helper()
	for name, tbl := range db.Tables() {
		st := tbl.Store()
		var cols []int
		for c, col := range st.Schema().Cols {
			if col.Kind != types.Float64 {
				cols = append(cols, c)
			}
		}
		idx, err := index.Build(st, cols)
		if err != nil {
			t.Fatalf("indexing %s: %v", name, err)
		}
		st.SetAux(idx)
	}
}

func TestQueriesPruneAgree(t *testing.T) {
	db := loadTest(t, table.ModePDT)
	attachIndexes(t, db)

	run := func(label string) []string {
		t.Helper()
		out := make([]string, len(Queries))
		for qi, q := range Queries {
			got, err := q.Run(db)
			if err != nil {
				t.Fatalf("Q%d (%s): %v", q.ID, label, err)
			}
			out[qi] = got
		}
		return out
	}
	compare := func(label string, got, want []string) {
		t.Helper()
		for qi, q := range Queries {
			if got[qi] != want[qi] {
				t.Errorf("Q%d differs %s:\npruned:\n%s\nunpruned:\n%s", q.ID, label, got[qi], want[qi])
			}
		}
	}

	// Two rounds: clean stable image first, then with two refresh streams of
	// unfolded PDT deltas over it (the indexes still describe the pre-refresh
	// image — the dirty-block gate is what must keep the answers right).
	for round, prep := range []func(){
		func() {},
		func() {
			if err := db.ApplyRefresh(2, 0.005); err != nil {
				t.Fatal(err)
			}
		},
	} {
		prep()
		db.NoPrune, db.Workers = true, 1
		baseline := run("unpruned")
		db.NoPrune = false
		pruned := run("pruned")
		compare("with pruning enabled", pruned, baseline)

		zone, idx := db.Device.SkipStats()
		if round == 0 && zone+idx == 0 {
			t.Error("no blocks were ever skipped: the pruned pass never pruned")
		}

		db.Workers = 4
		compare("under pruning plus forced parallelism", run("pruned parallel"), baseline)
	}
}
