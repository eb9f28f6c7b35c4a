package tpch

// Parallel differential over the whole workload: every TPC-H query must give
// byte-identical answers when every plan it builds is forced onto several
// workers (DB.Workers) as on one, with block pruning (zone maps here;
// prune_test.go adds indexes) and without it (DB.NoPrune). Q1 and Q6 take the
// partitioned aggregation sink — per-morsel partials merged in morsel order —
// so this also pins down that the combine step is scheduling-independent.

import (
	"fmt"
	"testing"

	"pdtstore/internal/table"
)

func TestQueriesParallelAgree(t *testing.T) {
	for _, mode := range []table.DeltaMode{table.ModeNone, table.ModePDT} {
		db := loadTest(t, mode)
		if mode == table.ModePDT {
			if err := db.ApplyRefresh(2, 0.005); err != nil {
				t.Fatal(err)
			}
		}
		var want []string // one worker, unpruned
		for _, workers := range []int{1, 4} {
			for _, noPrune := range []bool{true, false} {
				db.Workers, db.NoPrune = workers, noPrune
				label := fmt.Sprintf("%v, %d workers, NoPrune=%v", mode, workers, noPrune)
				got := make([]string, len(Queries))
				for qi, q := range Queries {
					var err error
					if got[qi], err = q.Run(db); err != nil {
						t.Fatalf("Q%d (%s): %v", q.ID, label, err)
					}
				}
				if want == nil {
					want = got
					continue
				}
				for qi, q := range Queries {
					if got[qi] != want[qi] {
						t.Errorf("Q%d (%s) differs from one worker unpruned:\nwant:\n%s\ngot:\n%s",
							q.ID, label, want[qi], got[qi])
					}
				}
			}
		}
	}
}
