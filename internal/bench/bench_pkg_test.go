package bench

import (
	"testing"

	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
)

func TestFig16SmallRun(t *testing.T) {
	pts := Fig16(Fig16Config{MaxEntries: 5000, Samples: 4, StableRows: 5000})
	if len(pts) < 3 {
		t.Fatalf("only %d sample points", len(pts))
	}
	for _, p := range pts {
		if p.InsertNS <= 0 || p.ModifyNS <= 0 || p.DeleteNS <= 0 {
			t.Fatalf("non-positive timing: %+v", p)
		}
	}
	last := pts[len(pts)-1]
	if last.Size < 4000 {
		t.Fatalf("PDT did not grow: %d", last.Size)
	}
}

func TestScanHarnessPDTvsVDT(t *testing.T) {
	base := ScanConfig{
		Tuples: 20000, DataCols: 4, KeyCols: 1, StringKeys: false,
		UpdatesPer100: 1.0, BlockRows: 1024,
	}
	var results []ScanResult
	for _, mode := range []table.DeltaMode{table.ModePDT, table.ModeVDT} {
		c := base
		c.Mode = mode
		tbl, err := BuildScanTable(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := MeasureScan(tbl, c)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	p, v := results[0], results[1]
	if p.Rows != v.Rows {
		t.Fatalf("row counts differ: PDT %d, VDT %d", p.Rows, v.Rows)
	}
	// The headline result: VDT scans must read more (the key column).
	if v.IOBytes <= p.IOBytes {
		t.Fatalf("VDT I/O (%d) must exceed PDT I/O (%d)", v.IOBytes, p.IOBytes)
	}
}

func TestScanHarnessMultiKeyString(t *testing.T) {
	c := ScanConfig{
		Tuples: 5000, DataCols: 3, KeyCols: 3, StringKeys: true,
		UpdatesPer100: 2.0, Mode: table.ModePDT, BlockRows: 512,
	}
	tbl, err := BuildScanTable(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasureScan(tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows == 0 || r.HotNS <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if err := tbl.PDT().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTPCHHarnessSmall(t *testing.T) {
	rows, err := TPCH(TPCHConfig{SF: 0.001, Compressed: true, BlockRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22*3 {
		t.Fatalf("expected 66 measurements, got %d", len(rows))
	}
	for _, r := range rows {
		if r.ColdMS < r.HotMS {
			t.Fatalf("cold < hot for Q%d %v", r.Query, r.Mode)
		}
	}
	// Aggregate I/O: VDT must exceed PDT (it always also reads key columns).
	var pdtIO, vdtIO, noneIO uint64
	for _, r := range rows {
		switch r.Mode {
		case table.ModePDT:
			pdtIO += r.IOBytes
		case table.ModeVDT:
			vdtIO += r.IOBytes
		case table.ModeNone:
			noneIO += r.IOBytes
		}
	}
	if vdtIO <= pdtIO {
		t.Fatalf("total VDT I/O (%d) must exceed PDT (%d)", vdtIO, pdtIO)
	}
	if pdtIO < noneIO {
		t.Fatalf("PDT I/O (%d) below clean runs (%d)?", pdtIO, noneIO)
	}
}

// TestUpdateHarness checks the write-path workload generator: the two-layer
// pair must be Validate()-clean and consecutive (propagatable both ways to
// the same result).
func TestUpdateHarness(t *testing.T) {
	base, delta, err := BuildPropagatePair(2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	if err := delta.Validate(); err != nil {
		t.Fatalf("delta: %v", err)
	}
	if base.Count() < 1900 || delta.Count() < 350 {
		t.Fatalf("undersized layers: base %d, delta %d", base.Count(), delta.Count())
	}
	bulk, err := pdt.Fold(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	ent := base.Snapshot()
	if err := ent.Propagate(delta); err != nil {
		t.Fatal(err)
	}
	if err := bulk.Validate(); err != nil {
		t.Fatalf("bulk result: %v", err)
	}
	if bulk.Count() != ent.Count() || bulk.Delta() != ent.Delta() {
		t.Fatalf("paths disagree: bulk (%d,%+d), entrywise (%d,%+d)",
			bulk.Count(), bulk.Delta(), ent.Count(), ent.Delta())
	}
}
