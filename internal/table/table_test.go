package table

import (
	"fmt"
	"math/rand"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func testSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k1", Kind: types.Int64},
		{Name: "k2", Kind: types.String},
		{Name: "a", Kind: types.Int64},
		{Name: "b", Kind: types.Float64},
	}, []int{0, 1})
}

func genRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.Int(int64(i / 3 * 10)),
			types.Str(fmt.Sprintf("s%02d", i%3)),
			types.Int(int64(i)),
			types.Float(float64(i) / 4),
		}
	}
	return rows
}

func newTable(t *testing.T, mode DeltaMode, n int) *Table {
	t.Helper()
	tbl, err := Load(testSchema(), genRows(n), Options{Mode: mode, BlockRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func scanKeys(t *testing.T, tbl *Table, lo, hi types.Row) []types.Row {
	t.Helper()
	cols := []int{0, 1}
	src, err := tbl.Scan(cols, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewBatch(tbl.Kinds(cols), 64)
	for {
		n, err := src.Next(out, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	rows := make([]types.Row, out.Len())
	for i := range rows {
		rows[i] = out.Row(i)
	}
	return rows
}

// apply runs one op as a batch of its own.
func apply(tbl *Table, op Op) (int, error) { return tbl.ApplyBatch([]Op{op}) }

func insertOp(row types.Row) Op { return Op{Kind: OpInsert, Row: row} }

func deleteOp(key types.Row) Op { return Op{Kind: OpDelete, Key: key} }

func updateOp(key types.Row, col int, val types.Value) Op {
	return Op{Kind: OpUpdate, Key: key, Col: col, Val: val}
}

func TestAllModesBasicLifecycle(t *testing.T) {
	for _, mode := range []DeltaMode{ModePDT, ModeVDT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			tbl := newTable(t, mode, 60)
			if tbl.NRows() != 60 {
				t.Fatalf("NRows = %d", tbl.NRows())
			}

			// insert a fresh key
			row := types.Row{types.Int(55), types.Str("zz"), types.Int(-1), types.Float(0)}
			if n, err := apply(tbl, insertOp(row)); err != nil || n != 1 {
				t.Fatalf("insert: %d %v", n, err)
			}
			if tbl.NRows() != 61 {
				t.Fatalf("NRows after insert = %d", tbl.NRows())
			}
			_, got, found, err := tbl.FindByKey(types.Row{types.Int(55), types.Str("zz")})
			if err != nil || !found {
				t.Fatalf("inserted key not found: %v", err)
			}
			if types.CompareRows(got, row) != 0 {
				t.Fatalf("FindByKey row = %v", got)
			}

			// duplicate insert rejected
			if _, err := apply(tbl, insertOp(row)); err == nil {
				t.Fatal("duplicate insert accepted")
			}

			// update a stable tuple
			key := types.Row{types.Int(0), types.Str("s01")}
			if n, err := apply(tbl, updateOp(key, 2, types.Int(999))); err != nil || n != 1 {
				t.Fatalf("update: %d %v", n, err)
			}
			_, got, _, err = tbl.FindByKey(key)
			if err != nil || got[2].I != 999 {
				t.Fatalf("update not visible: %v %v", got, err)
			}

			// delete it; a second delete misses and counts 0
			if n, err := apply(tbl, deleteOp(key)); err != nil || n != 1 {
				t.Fatalf("delete: %d %v", n, err)
			}
			if _, _, found, _ := tbl.FindByKey(key); found {
				t.Fatal("deleted key still visible")
			}
			if n, err := apply(tbl, deleteOp(key)); err != nil || n != 0 {
				t.Fatalf("double delete: %d %v", n, err)
			}
			if tbl.NRows() != 60 {
				t.Fatalf("NRows after delete = %d", tbl.NRows())
			}

			// the deleted key may come back, with the new row's values
			back := types.Row{key[0], key[1], types.Int(7), types.Float(7)}
			if n, err := apply(tbl, insertOp(back)); err != nil || n != 1 {
				t.Fatalf("insert after delete: %d %v", n, err)
			}
			if _, got, found, err := tbl.FindByKey(key); err != nil || !found || types.CompareRows(got, back) != 0 {
				t.Fatalf("re-inserted key: %v %v %v", got, found, err)
			}

			// update of a missing key counts 0
			if n, err := apply(tbl, updateOp(types.Row{types.Int(-5), types.Str("no")}, 2, types.Int(0))); err != nil || n != 0 {
				t.Fatalf("update of missing key: %d %v", n, err)
			}
			if tbl.DeltaMemBytes() == 0 {
				t.Fatal("delta memory should be positive")
			}
		})
	}
}

func TestModeNoneRejectsUpdates(t *testing.T) {
	tbl := newTable(t, ModeNone, 10)
	key := types.Row{types.Int(0), types.Str("s00")}
	for _, op := range []Op{insertOp(genRows(10)[0]), deleteOp(key), updateOp(key, 2, types.Int(1))} {
		if _, err := apply(tbl, op); err == nil {
			t.Errorf("ModeNone accepted op kind %d", op.Kind)
		}
	}
	keys := scanKeys(t, tbl, nil, nil)
	if len(keys) != 10 {
		t.Errorf("scan returned %d rows", len(keys))
	}
}

// TestSortKeyUpdateBecomesDeleteInsert: a batch cannot update a sort-key
// column — it rejects the whole batch with the row in place — so a move is
// a delete batch followed by an insert batch.
func TestSortKeyUpdateBecomesDeleteInsert(t *testing.T) {
	for _, mode := range []DeltaMode{ModePDT, ModeVDT} {
		tbl := newTable(t, mode, 30)
		key := types.Row{types.Int(30), types.Str("s00")}
		if _, err := apply(tbl, updateOp(key, 0, types.Int(31))); err == nil {
			t.Fatalf("%v: sort-key update accepted in a batch", mode)
		}
		_, row, found, err := tbl.FindByKey(key)
		if err != nil || !found {
			t.Fatalf("%v: row lost after rejected batch: %v", mode, err)
		}
		if n, err := apply(tbl, deleteOp(key)); err != nil || n != 1 {
			t.Fatalf("%v: delete: %d %v", mode, n, err)
		}
		row[0] = types.Int(31)
		if n, err := apply(tbl, insertOp(row)); err != nil || n != 1 {
			t.Fatalf("%v: insert: %d %v", mode, n, err)
		}
		if _, _, found, _ := tbl.FindByKey(key); found {
			t.Fatalf("%v: old key still visible", mode)
		}
		_, moved, found, err := tbl.FindByKey(types.Row{types.Int(31), types.Str("s00")})
		if err != nil || !found {
			t.Fatalf("%v: new key missing", mode)
		}
		if types.CompareRows(moved, row) != 0 {
			t.Fatalf("%v: moved row = %v", mode, moved)
		}
	}
}

func TestRangeScanWithUpdates(t *testing.T) {
	for _, mode := range []DeltaMode{ModePDT, ModeVDT} {
		tbl := newTable(t, mode, 90) // k1 in 0,10,...,290
		// insert inside a future range, delete one row inside the range
		if n, err := tbl.ApplyBatch([]Op{
			insertOp(types.Row{types.Int(105), types.Str("aa"), types.Int(0), types.Float(0)}),
			deleteOp(types.Row{types.Int(110), types.Str("s00")}),
		}); err != nil || n != 2 {
			t.Fatal(n, err)
		}
		keys := scanKeys(t, tbl, types.Row{types.Int(100)}, types.Row{types.Int(120)})
		// qualifying visible keys: (100,s00..s02), (105,aa), (110,s01),
		// (110,s02), (120,s00..s02) — nine in total.
		count := 0
		for _, k := range keys {
			if k[0].I >= 100 && k[0].I <= 120 {
				count++
			}
		}
		if count != 9 {
			t.Fatalf("%v: range scan has %d qualifying keys, want 9: %v", mode, count, keys)
		}
	}
}

func TestCheckpointEquivalence(t *testing.T) {
	for _, mode := range []DeltaMode{ModePDT, ModeVDT} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tbl := newTable(t, mode, 60)
			// random updates
			for i := 0; i < 120; i++ {
				switch rng.Intn(3) {
				case 0:
					k := types.Row{types.Int(int64(rng.Intn(300))), types.Str(fmt.Sprintf("n%03d", i)), types.Int(int64(i)), types.Float(1)}
					_, _ = apply(tbl, insertOp(k)) // duplicates rejected, fine
				case 1:
					keys := scanKeys(t, tbl, nil, nil)
					if len(keys) > 0 {
						k := keys[rng.Intn(len(keys))]
						if _, err := apply(tbl, deleteOp(k)); err != nil {
							t.Fatal(err)
						}
					}
				case 2:
					keys := scanKeys(t, tbl, nil, nil)
					if len(keys) > 0 {
						k := keys[rng.Intn(len(keys))]
						if _, err := apply(tbl, updateOp(k, 2, types.Int(int64(i)))); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			before := scanAllRows(t, tbl)
			nBefore := tbl.NRows()
			if err := tbl.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if tbl.DeltaMemBytes() != 0 {
				t.Error("delta not reset after checkpoint")
			}
			if tbl.NRows() != nBefore {
				t.Errorf("NRows changed across checkpoint: %d -> %d", nBefore, tbl.NRows())
			}
			after := scanAllRows(t, tbl)
			if len(before) != len(after) {
				t.Fatalf("row count changed: %d -> %d", len(before), len(after))
			}
			for i := range before {
				if types.CompareRows(before[i], after[i]) != 0 {
					t.Fatalf("row %d changed: %v -> %v", i, before[i], after[i])
				}
			}
			// the table remains updatable after checkpointing
			if _, err := apply(tbl, insertOp(types.Row{types.Int(9999), types.Str("post"), types.Int(0), types.Float(0)})); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func scanAllRows(t *testing.T, tbl *Table) []types.Row {
	t.Helper()
	cols := []int{0, 1, 2, 3}
	src, err := tbl.Scan(cols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := vector.NewBatch(tbl.Kinds(cols), 64)
	for {
		n, err := src.Next(out, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	rows := make([]types.Row, out.Len())
	for i := range rows {
		rows[i] = out.Row(i)
	}
	return rows
}

func TestVDTScanReadsSortKeysPDTDoesNot(t *testing.T) {
	// The paper's central I/O claim: scanning a non-key column must fetch
	// the sort-key columns under VDT but not under PDT.
	dev := colstore.NewDevice()
	rows := genRows(3000)
	mk := func(mode DeltaMode) *Table {
		tbl, err := Load(testSchema(), rows, Options{Mode: mode, BlockRows: 64, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	pdtTbl, vdtTbl := mk(ModePDT), mk(ModeVDT)
	// buffer one update in each so the merge path is active
	for _, tbl := range []*Table{pdtTbl, vdtTbl} {
		if _, err := apply(tbl, insertOp(types.Row{types.Int(5), types.Str("x"), types.Int(0), types.Float(0)})); err != nil {
			t.Fatal(err)
		}
	}

	measure := func(tbl *Table) uint64 {
		dev.DropCaches()
		dev.ResetStats()
		cols := []int{2} // non-key column only
		src, err := tbl.Scan(cols, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := vector.NewBatch(tbl.Kinds(cols), 1024)
		for {
			n, err := src.Next(out, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			out.Reset()
		}
		bytes, _ := dev.Stats()
		return bytes
	}
	pdtBytes := measure(pdtTbl)
	vdtBytes := measure(vdtTbl)
	if vdtBytes <= pdtBytes {
		t.Fatalf("VDT scan read %d bytes, PDT %d — VDT must read more (sort keys)", vdtBytes, pdtBytes)
	}
	// PDT reads exactly the projected column.
	if want := pdtTbl.Store().EncodedSize(2); pdtBytes != want {
		t.Fatalf("PDT scan read %d bytes, column is %d", pdtBytes, want)
	}
}

func TestLoadRejectsUnsortedRows(t *testing.T) {
	rows := genRows(10)
	rows[3], rows[4] = rows[4], rows[3]
	if _, err := Load(testSchema(), rows, Options{Mode: ModePDT}); err == nil {
		t.Fatal("unsorted load accepted")
	}
}

// TestFindByKeyAgreesAcrossModes: the positional probe (ModePDT, ModeNone)
// and the value-merge baseline (ModeVDT) answer every key identically — RID,
// row and found — on a clean image and, for the two updatable modes, after
// the same random one-op batches (inserts, deletes, modifies, and deletes
// followed by a re-insert of the key).
func TestFindByKeyAgreesAcrossModes(t *testing.T) {
	const n = 90
	tbls := map[DeltaMode]*Table{}
	for _, mode := range []DeltaMode{ModePDT, ModeVDT, ModeNone} {
		tbls[mode] = newTable(t, mode, n)
	}
	var keys []types.Row
	for a := int64(-10); a <= n/3*10+10; a += 5 {
		for _, b := range []string{"", "s00", "s01", "s01x", "s02", "zz"} {
			keys = append(keys, types.Row{types.Int(a), types.Str(b)})
		}
	}
	agree := func(label string, modes ...DeltaMode) {
		t.Helper()
		for _, key := range keys {
			rid0, row0, found0, err := tbls[modes[0]].FindByKey(key)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes[1:] {
				rid, row, found, err := tbls[mode].FindByKey(key)
				if err != nil || rid != rid0 || found != found0 || types.CompareRows(row, row0) != 0 {
					t.Fatalf("%s: FindByKey(%v): %v says (%d, %v, %v, %v), %v says (%d, %v, %v)",
						label, key, mode, rid, row, found, err, modes[0], rid0, row0, found0)
				}
			}
		}
	}
	agree("clean", ModePDT, ModeVDT, ModeNone)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		key := keys[rng.Intn(len(keys))]
		row := types.Row{key[0], key[1], types.Int(int64(i)), types.Float(0.5)}
		var ops []Op
		switch rng.Intn(4) {
		case 0:
			ops = []Op{insertOp(row)}
		case 1:
			ops = []Op{deleteOp(key)}
		case 2:
			ops = []Op{updateOp(key, 2, types.Int(int64(-i)))}
		default:
			ops = []Op{deleteOp(key), insertOp(row)}
		}
		for _, op := range ops {
			var ns [2]int
			var errs [2]error
			for j, mode := range []DeltaMode{ModePDT, ModeVDT} {
				ns[j], errs[j] = apply(tbls[mode], op)
			}
			if ns[0] != ns[1] || (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("op kind %d on %v: PDT says (%d, %v), VDT says (%d, %v)", op.Kind, key, ns[0], errs[0], ns[1], errs[1])
			}
		}
	}
	if err := tbls[ModePDT].PDT().Validate(); err != nil {
		t.Fatal(err)
	}
	agree("after updates", ModePDT, ModeVDT)
}
