// Package bench is the measurement harness behind every figure of the
// paper's evaluation (§4). It builds the microbenchmark workloads (Figures
// 16–18) and the TPC-H comparison (Figure 19), shared by the go-test
// benchmarks in the repository root and the cmd/pdtbench driver, plus the
// write-path workload generator the root BenchmarkWritePath uses.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pdtstore/internal/colstore"
	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// ----- Figure 16: PDT maintenance cost vs PDT size ---------------------------

// Fig16Point is one sample: per-operation cost at a given PDT size.
type Fig16Point struct {
	Size     int // entries in the PDT when sampled
	InsertNS float64
	ModifyNS float64
	DeleteNS float64
}

// Fig16Config sizes the run.
type Fig16Config struct {
	MaxEntries int // grow the PDT to this many entries (paper: 1e6)
	Samples    int // number of sample points along the way
	Fanout     int // PDT fanout (paper default 8)
	StableRows int // size of the virtual underlying table
	Seed       int64
}

// Fig16 grows a PDT with scattered inserts and samples the cost of each
// update kind at increasing sizes, reproducing the logarithmic curves of
// Figure 16.
func Fig16(cfg Fig16Config) []Fig16Point {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = 1_000_000
	}
	if cfg.Samples == 0 {
		cfg.Samples = 20
	}
	if cfg.StableRows == 0 {
		cfg.StableRows = cfg.MaxEntries
	}
	schema := types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
	}, []int{0})
	rng := rand.New(rand.NewSource(cfg.Seed + 16))
	p := pdt.New(schema, cfg.Fanout)
	visible := int64(cfg.StableRows)
	nextKey := int64(1 << 40) // synthetic keys for inserted tuples

	out := make([]Fig16Point, 0, cfg.Samples)
	step := cfg.MaxEntries / cfg.Samples
	if step == 0 {
		step = 1
	}
	const probe = 200 // operations timed per sample
	for p.Count() < cfg.MaxEntries {
		// grow with scattered inserts
		target := p.Count() + step - probe*3
		for p.Count() < target {
			rid := uint64(rng.Int63n(visible + 1))
			nextKey++
			if err := p.Insert(rid, types.Row{types.Int(nextKey), types.Int(0)}); err != nil {
				panic(err)
			}
			visible++
		}
		pt := Fig16Point{}
		// timed inserts
		start := time.Now()
		for i := 0; i < probe; i++ {
			rid := uint64(rng.Int63n(visible + 1))
			nextKey++
			if err := p.Insert(rid, types.Row{types.Int(nextKey), types.Int(0)}); err != nil {
				panic(err)
			}
			visible++
		}
		pt.InsertNS = float64(time.Since(start).Nanoseconds()) / probe
		// timed modifies
		start = time.Now()
		for i := 0; i < probe; i++ {
			rid := uint64(rng.Int63n(visible))
			if err := p.Modify(rid, 1, types.Int(int64(i))); err != nil {
				panic(err)
			}
		}
		pt.ModifyNS = float64(time.Since(start).Nanoseconds()) / probe
		// timed deletes
		start = time.Now()
		for i := 0; i < probe; i++ {
			rid := uint64(rng.Int63n(visible))
			nextKey++
			if err := p.Delete(rid, types.Row{types.Int(nextKey)}); err != nil {
				panic(err)
			}
			visible--
		}
		pt.DeleteNS = float64(time.Since(start).Nanoseconds()) / probe
		pt.Size = p.Count()
		out = append(out, pt)
	}
	return out
}

// ----- Figures 17 & 18: MergeScan microbenchmarks ----------------------------

// ScanConfig describes one MergeScan experiment cell.
type ScanConfig struct {
	Tuples        int     // table size (paper: 1M/10M/100M)
	DataCols      int     // non-key columns (Fig 17: 4; Fig 18: 6-KeyCols)
	KeyCols       int     // sort-key columns (Fig 17: 1; Fig 18: 1..4)
	StringKeys    bool    // integer or string keys
	UpdatesPer100 float64 // update ratio (0..2.5 per 100 tuples)
	Mode          table.DeltaMode
	BlockRows     int
	Seed          int64
}

// ScanResult is the measured cell.
type ScanResult struct {
	ScanConfig
	HotNS   float64 // wall time of one in-memory merged scan
	IOBytes uint64  // cold I/O volume of the scan
	Rows    int
}

// keyDigits decomposes x into KeyCols digits, most significant first, so the
// lexicographic composite order equals numeric order. The most significant
// digit absorbs the remainder rather than wrapping modulo the base — a
// single-column key of a large table must stay monotone past 2^20 tuples.
func keyDigits(x int64, keyCols int) []int64 {
	const base = 1 << 20
	out := make([]int64, keyCols)
	for i := keyCols - 1; i >= 1; i-- {
		out[i] = x % base
		x /= base
	}
	out[0] = x
	return out
}

func (c ScanConfig) schema() *types.Schema {
	cols := make([]types.Column, 0, c.KeyCols+c.DataCols)
	kind := types.Int64
	if c.StringKeys {
		kind = types.String
	}
	for i := 0; i < c.KeyCols; i++ {
		cols = append(cols, types.Column{Name: fmt.Sprintf("k%d", i), Kind: kind})
	}
	for i := 0; i < c.DataCols; i++ {
		cols = append(cols, types.Column{Name: fmt.Sprintf("d%d", i), Kind: types.Int64})
	}
	sk := make([]int, c.KeyCols)
	for i := range sk {
		sk[i] = i
	}
	return types.MustSchema(cols, sk)
}

func (c ScanConfig) keyRow(x int64) types.Row {
	digits := keyDigits(x, c.KeyCols)
	key := make(types.Row, c.KeyCols)
	for i, d := range digits {
		if c.StringKeys {
			key[i] = types.Str(fmt.Sprintf("key%012d", d))
		} else {
			key[i] = types.Int(d)
		}
	}
	return key
}

func (c ScanConfig) rowFor(x int64, tag int64) types.Row {
	row := c.keyRow(x)
	for i := 0; i < c.DataCols; i++ {
		row = append(row, types.Int(x+tag+int64(i)))
	}
	return row
}

// rowSource feeds the bulk loader without materializing all rows.
type rowSource struct {
	c ScanConfig
	i int
	n int
}

func (s *rowSource) Next(out *vector.Batch, max int) (int, error) {
	n := 0
	for s.i < s.n && n < max {
		out.AppendRow(s.c.rowFor(int64(s.i)*2, 0)) // even keys; odd = insert space
		s.i++
		n++
	}
	return n, nil
}

// BuildScanTable loads the table and applies the configured update ratio
// (40% modifies, 30% inserts, 30% deletes, scattered uniformly, applied
// through the table layer as one-op batches so they land in the mode's
// delta structure one at a time).
func BuildScanTable(c ScanConfig) (*table.Table, error) {
	dev := colstore.NewDevice()
	tbl, err := table.LoadBatches(c.schema(), &rowSource{c: c, n: c.Tuples},
		table.Options{Mode: c.Mode, BlockRows: c.BlockRows, Device: dev})
	if err != nil {
		return nil, err
	}
	if c.Mode == table.ModeNone || c.UpdatesPer100 == 0 {
		return tbl, nil
	}
	rng := rand.New(rand.NewSource(c.Seed + 17))
	nUpd := int(float64(c.Tuples) * c.UpdatesPer100 / 100)
	for u := 0; u < nUpd; u++ {
		op := table.Op{Kind: table.OpDelete}
		r := rng.Float64()
		switch {
		case r < 0.4: // modify a random data column of a random base tuple
			op = table.Op{Kind: table.OpUpdate, Key: c.keyRow(int64(rng.Intn(c.Tuples)) * 2),
				Col: c.KeyCols + rng.Intn(c.DataCols), Val: types.Int(int64(u))}
		case r < 0.7: // insert at an odd key (scattered position)
			op = table.Op{Kind: table.OpInsert, Row: c.rowFor(int64(rng.Intn(c.Tuples))*2+1, 7)}
		default: // delete a random base tuple
			op.Key = c.keyRow(int64(rng.Intn(c.Tuples)) * 2)
		}
		// Only an insert can collide; a colliding one is skipped.
		switch _, err := tbl.ApplyBatch([]table.Op{op}); {
		case errors.Is(err, types.ErrDuplicateKey):
		case err != nil:
			return nil, err
		}
	}
	return tbl, nil
}

// MeasureScan runs the experiment's query — project all data columns (never
// the keys) through the merging scan — and reports hot time and cold I/O.
func MeasureScan(tbl *table.Table, c ScanConfig) (ScanResult, error) {
	res := ScanResult{ScanConfig: c}
	cols := make([]int, c.DataCols)
	for i := range cols {
		cols[i] = c.KeyCols + i
	}
	runScan := func() (int, error) {
		src, err := tbl.Scan(cols, nil, nil)
		if err != nil {
			return 0, err
		}
		out := vector.NewBatch(tbl.Kinds(cols), 1024)
		rows := 0
		for {
			n, err := src.Next(out, 1024)
			if err != nil {
				return rows, err
			}
			if n == 0 {
				return rows, nil
			}
			rows += n
			out.Reset()
		}
	}
	// cold pass: count I/O (and warm the buffer pool)
	tbl.Store().Device().DropCaches()
	tbl.Store().Device().ResetStats()
	rows, err := runScan()
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.IOBytes, _ = tbl.Store().Device().Stats()
	// hot pass: measure wall time
	start := time.Now()
	if _, err := runScan(); err != nil {
		return res, err
	}
	res.HotNS = float64(time.Since(start).Nanoseconds())
	return res, nil
}

// ----- Figure 19: TPC-H ------------------------------------------------------

// TPCHConfig describes one platform profile of Figure 19.
type TPCHConfig struct {
	SF          float64
	Compressed  bool
	BlockRows   int
	Streams     int     // update streams (paper: 2)
	UpdateFrac  float64 // fraction of orders touched per stream (paper: 0.001)
	BandwidthMB float64 // modeled disk bandwidth for cold times
}

// TPCHRow is the measurement of one query under one mode.
type TPCHRow struct {
	Query   int
	Mode    table.DeltaMode
	HotMS   float64
	ColdMS  float64 // modeled: hot + IO/bandwidth
	IOBytes uint64
}

// TPCH loads one database per mode, applies the update streams, runs all 22
// queries and reports per-query hot time, I/O volume and modeled cold time —
// the three panels of Figure 19.
func TPCH(cfg TPCHConfig) ([]TPCHRow, error) {
	if cfg.Streams == 0 {
		cfg.Streams = 2
	}
	if cfg.UpdateFrac == 0 {
		cfg.UpdateFrac = 0.001
	}
	if cfg.BandwidthMB == 0 {
		cfg.BandwidthMB = 150 // the paper's workstation disk
	}
	var out []TPCHRow
	for _, mode := range []table.DeltaMode{table.ModeNone, table.ModeVDT, table.ModePDT} {
		db, err := tpch.Load(cfg.SF, mode, cfg.Compressed, cfg.BlockRows)
		if err != nil {
			return nil, err
		}
		if err := db.ApplyRefresh(cfg.Streams, cfg.UpdateFrac); err != nil {
			return nil, err
		}
		for _, q := range tpch.Queries {
			// cold pass: I/O volume (+ warms pool)
			db.Device.DropCaches()
			db.Device.ResetStats()
			if _, err := q.Run(db); err != nil {
				return nil, fmt.Errorf("Q%d (%v): %w", q.ID, mode, err)
			}
			io, _ := db.Device.Stats()
			// hot pass: wall time
			start := time.Now()
			if _, err := q.Run(db); err != nil {
				return nil, err
			}
			hot := float64(time.Since(start).Nanoseconds()) / 1e6
			out = append(out, TPCHRow{
				Query:   q.ID,
				Mode:    mode,
				HotMS:   hot,
				ColdMS:  hot + float64(io)/(cfg.BandwidthMB*1e6)*1e3,
				IOBytes: io,
			})
		}
	}
	return out, nil
}
