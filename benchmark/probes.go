package main

// Layer probes: direct, timed calls into each module's exported functions,
// run only in a traced run. They measure every layer from outside — nothing
// in the store is instrumented — on data taken from the run's own seed: a
// prefix of the generated lineitem image, loaded into a RAM store the probes
// own, and the files of the run's snapshot.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pdtstore"
	paperbench "pdtstore/internal/bench"
	"pdtstore/internal/colstore"
	"pdtstore/internal/compress"
	"pdtstore/internal/engine"
	"pdtstore/internal/index"
	"pdtstore/internal/pdt"
	"pdtstore/internal/storage"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
	"pdtstore/internal/wal"
)

// layerMetrics accumulates per-layer metrics under "<module>.<metric>" names.
type layerMetrics map[string]metric

func (l layerMetrics) put(name string, v float64, unit string, n int) {
	l[name] = metric{Value: v, Unit: unit, n: n}
}

// bestOf times fn k times and returns the fastest, in seconds.
func bestOf(k int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < k; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// probeRows is how much of the generated image the RAM probe store holds.
func probeRows(cfg config, have int) int {
	n := int(65536 * cfg.probeScale)
	if n > have {
		n = have
	}
	return n
}

// runProbes executes every layer probe. rows is the probe prefix of the
// generated image; snap is the run's snapshot directory (segments + WAL).
func (b *bench) runProbes(l layerMetrics, rows []types.Row, snap string) error {
	dev := colstore.NewDevice()
	schema := tpch.LineitemSchema

	// colstore: bulk load, then a hot scan of Q6's five columns straight off
	// the store — no PDT, no filters.
	var st *colstore.Store
	sec, err := bestOf(2, func() (err error) {
		st, err = colstore.BulkLoad(schema, dev, blockRows, true, rows)
		return err
	})
	if err != nil {
		return fmt.Errorf("probe bulkload: %w", err)
	}
	l.put("colstore.bulkload_mrows_per_s", float64(len(rows))/sec/1e6, "Mrows/s", 2)
	q6cols := []int{tpch.LExtendedprice, tpch.LDiscount, tpch.LShipdate, tpch.LQuantity}
	scanStore := func() error {
		sc := st.NewScanner(q6cols, 0, st.NRows())
		out := vector.NewBatch(kindsOf(schema, q6cols), 1024)
		for {
			out.Reset()
			n, err := sc.Next(out, 1024)
			if err != nil || n == 0 {
				return err
			}
		}
	}
	if err := scanStore(); err != nil {
		return fmt.Errorf("probe store scan: %w", err)
	}
	sec, err = bestOf(5, scanStore)
	if err != nil {
		return err
	}
	l.put("colstore.scan_hot_mrows_per_s", float64(len(rows))/sec/1e6, "Mrows/s", 5)

	if err := probeCompress(l, st); err != nil {
		return fmt.Errorf("probe compress: %w", err)
	}
	probeVector(l)
	if err := probeTable(l, st, rows, b.main.rng); err != nil {
		return fmt.Errorf("probe table: %w", err)
	}
	if err := probeIndex(l, st, rows); err != nil {
		return fmt.Errorf("probe index: %w", err)
	}
	if err := probePDT(l, b.cfg); err != nil {
		return fmt.Errorf("probe pdt: %w", err)
	}
	if err := b.probeStorage(l, snap); err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	if err := b.probeWAL(l, snap); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	return nil
}

func kindsOf(schema *types.Schema, cols []int) []types.Kind {
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = schema.Cols[c].Kind
	}
	return kinds
}

// probeCompress decodes and re-encodes the probe store's own blocks.
func probeCompress(l layerMetrics, st *colstore.Store) error {
	schema := st.Schema()
	blocks := func(cols ...int) (encs [][]byte, err error) {
		for _, c := range cols {
			for blk := 0; blk < st.NumBlocks(); blk++ {
				enc, err := st.EncodedBlock(c, blk)
				if err != nil {
					return nil, err
				}
				encs = append(encs, enc)
			}
		}
		return encs, nil
	}
	const reps = 5
	rate := func(name string, vals int, fn func() error) error {
		sec, err := bestOf(reps, fn)
		if err != nil {
			return err
		}
		l.put(name, float64(vals)/sec/1e6, "Mvals/s", reps)
		return nil
	}

	ints, err := blocks(tpch.LOrderkey, tpch.LPartkey, tpch.LShipdate)
	if err != nil {
		return err
	}
	var ibuf []int64
	var decodedInts [][]int64
	nvals := 0
	for _, enc := range ints {
		v, err := compress.DecodeInt64s(enc, nil)
		if err != nil {
			return err
		}
		decodedInts = append(decodedInts, v)
		nvals += len(v)
	}
	if err := rate("compress.decode_int_mvals_per_s", nvals, func() error {
		for _, enc := range ints {
			if ibuf, err = compress.DecodeInt64s(enc, ibuf[:0]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	floats, err := blocks(tpch.LExtendedprice, tpch.LDiscount)
	if err != nil {
		return err
	}
	var fbuf []float64
	nf := 0
	for _, enc := range floats {
		if fbuf, err = compress.DecodeFloat64s(enc, fbuf[:0]); err != nil {
			return err
		}
		nf += len(fbuf)
	}
	if err := rate("compress.decode_float_mvals_per_s", nf, func() error {
		for _, enc := range floats {
			if fbuf, err = compress.DecodeFloat64s(enc, fbuf[:0]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	strs, err := blocks(tpch.LShipmode, tpch.LComment)
	if err != nil {
		return err
	}
	var sbuf []string
	var decodedStrs [][]string
	ns := 0
	for _, enc := range strs {
		v, err := compress.DecodeStrings(enc, nil)
		if err != nil {
			return err
		}
		decodedStrs = append(decodedStrs, v)
		ns += len(v)
	}
	if err := rate("compress.decode_str_mvals_per_s", ns, func() error {
		for _, enc := range strs {
			if sbuf, err = compress.DecodeStrings(enc, sbuf[:0]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var sink int
	if err := rate("compress.encode_mvals_per_s", nvals+ns, func() error {
		for _, v := range decodedInts {
			sink += len(compress.EncodeInt64s(v, true))
		}
		for _, v := range decodedStrs {
			sink += len(compress.EncodeStrings(v, true))
		}
		return nil
	}); err != nil {
		return err
	}

	// Ratio: raw bytes (8 per number, length + 4 per string) over encoded.
	var raw uint64
	for c, col := range schema.Cols {
		if col.Kind != types.String {
			raw += 8 * st.NRows()
			continue
		}
		for blk := 0; blk < st.NumBlocks(); blk++ {
			enc, err := st.EncodedBlock(c, blk)
			if err != nil {
				return err
			}
			if sbuf, err = compress.DecodeStrings(enc, sbuf[:0]); err != nil {
				return err
			}
			for _, s := range sbuf {
				raw += uint64(len(s)) + 4
			}
		}
	}
	l.put("compress.ratio", float64(raw)/float64(st.EncodedSize(-1)), "ratio", 1)
	return nil
}

// probeVector times the int range kernel and the gather that follows it.
func probeVector(l layerMetrics) {
	const n, loops = 1024, 4000
	v := vector.New(types.Int64, n)
	for i := 0; i < n; i++ {
		v.I = append(v.I, int64(i*7919%1000))
	}
	sel := vector.NewSelection(n)
	sec, _ := bestOf(5, func() error {
		for i := 0; i < loops; i++ {
			sel.All(n)
			sel.FilterInt64Range(v, 250, 749)
		}
		return nil
	})
	l.put("vector.filter_int_mvals_per_s", n*loops/sec/1e6, "Mvals/s", 5)
	kept := append([]uint32(nil), sel.Indexes()...)
	dst := vector.New(types.Int64, n)
	sec, _ = bestOf(5, func() error {
		for i := 0; i < loops; i++ {
			dst.Reset()
			dst.AppendSelected(v, kept)
		}
		return nil
	})
	l.put("vector.append_selected_mvals_per_s", float64(len(kept))*loops/sec/1e6, "Mvals/s", 5)
}

// probeTable times the table layer's batch resolver, key probe, dirty-set
// computation and materialisation over the probe store.
func probeTable(l layerMetrics, st *colstore.Store, rows []types.Row, rng *rand.Rand) error {
	tbl, err := table.FromStore(st, table.Options{Mode: table.ModePDT, BlockRows: blockRows, Compressed: true, Device: st.Device()})
	if err != nil {
		return err
	}
	const nops = 256
	used := map[int]bool{}
	ops := make([]table.Op, 0, nops)
	for len(ops) < nops && len(ops) < len(rows) {
		i := rng.Intn(len(rows))
		if used[i] {
			continue
		}
		used[i] = true
		m := randomModify(rng, keyOf(rows[i]))
		ops = append(ops, m.op())
	}
	sorted, err := table.SortOps(tbl.Schema(), ops)
	if err != nil {
		return err
	}
	sec, err := bestOf(5, func() error {
		_, err := table.ResolveOps(tbl, sorted)
		return err
	})
	if err != nil {
		return err
	}
	l.put("table.resolve_us_per_op", sec*1e6/float64(len(sorted)), "us", 5)

	var finds []float64
	for i := 0; i < 100; i++ {
		k := keyOf(rows[rng.Intn(len(rows))])
		t0 := time.Now()
		_, _, found, err := tbl.FindByKey(k.row())
		finds = append(finds, float64(time.Since(t0))/1e3)
		if err != nil || !found {
			return fmt.Errorf("FindByKey %v: found=%v err=%v", k, found, err)
		}
	}
	l.put("table.find_by_key_us", median(finds), "us", len(finds))

	if _, err := tbl.ApplyBatch(ops); err != nil {
		return err
	}
	var ds *table.DirtySet
	sec, err = bestOf(3, func() (err error) {
		ds, err = tbl.ComputeDirty(tbl.Store(), tbl.PDT())
		return err
	})
	if err != nil {
		return err
	}
	l.put("table.compute_dirty_ms", sec*1e3, "ms", 3)
	l.put("table.dirty_cells_frac", float64(ds.WriteCells())/float64(ds.TotalCells()), "ratio", 1)
	sec, err = bestOf(2, func() error {
		_, err := tbl.Materialize(tbl.Store(), tbl.PDT())
		return err
	})
	if err != nil {
		return err
	}
	l.put("table.materialize_mrows_per_s", float64(len(rows))/sec/1e6, "Mrows/s", 2)
	return nil
}

// probeIndex builds the cold workload's two indexes over the probe store,
// rebuilds them with a tenth of the blocks dirty, and asks how many blocks an
// equality on l_partkey can skip.
func probeIndex(l layerMetrics, st *colstore.Store, rows []types.Row) error {
	cols := []int{tpch.LPartkey, tpch.LShipmode}
	var set *index.Set
	sec, err := bestOf(3, func() (err error) {
		set, err = index.Build(st, cols)
		return err
	})
	if err != nil {
		return err
	}
	l.put("index.build_ms", sec*1e3, "ms", 3)
	nb := st.NumBlocks()
	sec, err = bestOf(3, func() error {
		_, err := set.Rebuild(st, nb, func(col, blk int) bool { return blk%10 == 0 })
		return err
	})
	if err != nil {
		return err
	}
	l.put("index.rebuild_ms", sec*1e3, "ms", 3)
	skipped, asked := 0, 0
	for i := 0; i < 20; i++ {
		x := rows[i*len(rows)/20][tpch.LPartkey].I
		for blk := 0; blk < nb; blk++ {
			asked++
			if skip, _ := set.CanSkip(engine.Pred{Col: tpch.LPartkey, Op: engine.PredInt64Range, ILo: x, IHi: x, Eq: true}, blk); skip {
				skipped++
			}
		}
	}
	l.put("index.skip_ratio_eq", float64(skipped)/float64(asked), "ratio", asked)
	return nil
}

// probePDT records the paper's microbenchmarks with internal/bench's own
// helpers: Figure 16 (update cost at 100k entries), Figures 17/18 (MergeScan
// overhead over a clean scan at 2.5 updates per 100 tuples, integer and
// string keys, PDT against the value-based VDT baseline), plus fold rate,
// snapshot cost and memory per entry of the PDT itself.
func probePDT(l layerMetrics, cfg config) error {
	entries := int(100_000 * cfg.probeScale)
	if entries < 2000 {
		entries = 2000
	}
	pts := paperbench.Fig16(paperbench.Fig16Config{MaxEntries: entries, Samples: 1, Seed: cfg.seed})
	pt := pts[len(pts)-1]
	l.put("pdt.insert_us", pt.InsertNS/1e3, "us", 200)
	l.put("pdt.modify_us", pt.ModifyNS/1e3, "us", 200)
	l.put("pdt.delete_us", pt.DeleteNS/1e3, "us", 200)

	tuples := int(50_000 * cfg.probeScale)
	if tuples < 4000 {
		tuples = 4000
	}
	for _, kt := range []struct {
		name string
		str  bool
	}{{"int", false}, {"str", true}} {
		hot := map[table.DeltaMode]float64{}
		for _, mode := range []table.DeltaMode{table.ModeNone, table.ModePDT, table.ModeVDT} {
			sc := paperbench.ScanConfig{Tuples: tuples, DataCols: 4, KeyCols: 1, StringKeys: kt.str, UpdatesPer100: 2.5, Mode: mode, BlockRows: blockRows, Seed: cfg.seed}
			tbl, err := paperbench.BuildScanTable(sc)
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				res, err := paperbench.MeasureScan(tbl, sc)
				if err != nil {
					return err
				}
				if i == 0 || res.HotNS < hot[mode] {
					hot[mode] = res.HotNS
				}
			}
		}
		l.put("pdt.mergescan_overhead_pct_"+kt.name, 100*(hot[table.ModePDT]/hot[table.ModeNone]-1), "%", 3)
		l.put("vdt.mergescan_overhead_pct_"+kt.name, 100*(hot[table.ModeVDT]/hot[table.ModeNone]-1), "%", 3)
	}

	schema := types.MustSchema([]types.Column{{Name: "k", Kind: types.Int64}, {Name: "v", Kind: types.Int64}}, []int{0})
	rng := rand.New(rand.NewSource(cfg.seed))
	grow := func(n int, visible int64) (*pdt.PDT, int64, error) {
		p := pdt.New(schema, 0)
		for i := 0; i < n; i++ {
			if err := p.Insert(uint64(rng.Int63n(visible+1)), types.Row{types.Int(int64(i)), types.Int(0)}); err != nil {
				return nil, 0, err
			}
			visible++
		}
		return p, visible, nil
	}
	base, visible, err := grow(entries/2, int64(entries))
	if err != nil {
		return err
	}
	w, _, err := grow(entries/20, visible)
	if err != nil {
		return err
	}
	sec, err := bestOf(3, func() error {
		_, err := pdt.Fold(base, w)
		return err
	})
	if err != nil {
		return err
	}
	l.put("pdt.fold_entries_per_s", float64(base.Count()+w.Count())/sec, "1/s", 3)
	const snaps = 2000
	t0 := time.Now()
	for i := 0; i < snaps; i++ {
		_ = base.Snapshot()
	}
	l.put("pdt.snapshot_ns", float64(time.Since(t0).Nanoseconds())/snaps, "ns", snaps)
	l.put("pdt.mem_bytes_per_entry", float64(base.MemBytes())/float64(base.Count()), "B", 1)
	return nil
}

// probeStorage reads the snapshot's newest segment block by block, writes
// the same blocks into a fresh segment, and swaps a manifest.
func (b *bench) probeStorage(l layerMetrics, snap string) error {
	segs, err := filepath.Glob(filepath.Join(snap, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no segment in %s: %v", snap, err)
	}
	path := segs[0]
	for _, s := range segs[1:] { // the largest member is the base image
		if a, _ := os.Stat(s); a != nil {
			if p, _ := os.Stat(path); p != nil && a.Size() > p.Size() {
				path = s
			}
		}
	}
	var seg *storage.Segment
	sec, err := bestOf(5, func() (err error) {
		if seg != nil {
			seg.Close()
		}
		seg, err = storage.OpenSegment(path)
		return err
	})
	if err != nil {
		return err
	}
	defer seg.Close()
	l.put("storage.open_segment_ms", sec*1e3, "ms", 5)

	type blk struct {
		col int
		enc []byte
	}
	var (
		blocks []blk
		reads  []float64
		bytes  int
	)
	for c := 0; c < seg.Schema().NumCols(); c++ {
		for i := 0; i < seg.ColBlocks(c); i++ {
			t0 := time.Now()
			enc, err := seg.ReadBlock(c, i)
			reads = append(reads, float64(time.Since(t0))/1e3)
			if err != nil {
				return err
			}
			blocks = append(blocks, blk{c, enc})
			bytes += len(enc)
		}
	}
	l.put("storage.read_block_us", median(reads), "us", len(reads))

	out := filepath.Join(b.dir, "probe.seg")
	sec, err = bestOf(3, func() error {
		w, err := storage.CreateSegment(out, seg.Schema(), seg.BlockRows(), seg.Compressed())
		if err != nil {
			return err
		}
		for _, bl := range blocks {
			if err := w.AppendBlock(bl.col, bl.enc, storage.Zone{}); err != nil {
				w.Abort()
				return err
			}
		}
		s, err := w.Finish(seg.NRows(), seg.Sparse())
		if err != nil {
			return err
		}
		return s.Close()
	})
	os.Remove(out)
	if err != nil {
		return err
	}
	l.put("storage.write_mb_per_s", float64(bytes)/sec/1e6, "MB/s", 3)

	mdir := filepath.Join(b.dir, "probe-manifest")
	if err := os.MkdirAll(mdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(mdir)
	var swaps []float64
	for g := uint64(1); g <= 9; g++ {
		t0 := time.Now()
		if err := storage.WriteManifest(mdir, storage.Manifest{Generation: g, Segment: "seg-probe.seg", LSN: g}); err != nil {
			return err
		}
		swaps = append(swaps, since(t0))
	}
	l.put("storage.manifest_swap_ms", median(swaps), "ms", len(swaps))
	return nil
}

// probeWAL times the raw fsync floor, FileLog.Append on a scratch log, and a
// replay parse of the snapshot's own log.
func (b *bench) probeWAL(l layerMetrics, snap string) error {
	l.put("wal.fsync_us_p50", fsyncFloorUs(b.dir, 100), "us", 100)

	schema := tpch.LineitemSchema
	p := pdt.New(schema, 0)
	if err := p.Modify(7, colQty, types.Float(3)); err != nil {
		return err
	}
	entries := p.Dump()
	ldir := filepath.Join(b.dir, "probe-wal")
	defer os.RemoveAll(ldir)
	flog, _, err := wal.OpenFileLog(ldir)
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if _, err := flog.Append("lineitem", entries); err != nil {
			flog.Close()
			return err
		}
		appends = append(appends, float64(time.Since(t0))/1e3)
	}
	if err := flog.Close(); err != nil {
		return err
	}
	l.put("wal.append_sync_us", median(appends), "us", len(appends))

	// Replay parse: every stream of the snapshot, on a private copy because
	// OpenFileLog may truncate a torn tail.
	streams, _ := filepath.Glob(filepath.Join(snap, "wal*"))
	var secs float64
	records := 0
	for _, s := range streams {
		cp := filepath.Join(b.dir, "probe-replay")
		if err := copyDir(s, cp); err != nil {
			return err
		}
		t0 := time.Now()
		fl, recs, err := wal.OpenFileLog(cp)
		secs += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		records += len(recs)
		fl.Close()
		os.RemoveAll(cp)
	}
	if records == 0 {
		records = 1
	}
	l.put("wal.replay_us_per_record", secs*1e6/float64(records), "us", records)
	return nil
}

// ---- probes against the run's own store -----------------------------------------------

// probeEngine measures plan set-up, pruning and allocation behaviour on the
// workload's live store.
func (b *bench) probeEngine(l layerMetrics) {
	c := b.main
	// Plan set-up: a scan that stops at its first batch.
	var setups []float64
	for i := 0; i < 50; i++ {
		tx := c.db.Begin()
		t0 := time.Now()
		err := engine.Scan(tx, tpch.LExtendedprice).Parallel(1).Run(func(*vector.Batch, []uint32) error { return engine.Stop })
		setups = append(setups, float64(time.Since(t0))/1e3)
		tx.Abort()
		c.attempted++
		if err != nil {
			c.fail("plan set-up probe: %v", err)
		}
	}
	l.put("engine.plan_setup_us", median(setups), "us", len(setups))
	l.put("engine.rows_examined_per_result_q6", float64(b.or.agg.rows)/float64(max(b.or.agg.q6n, 1)), "ratio", 1)

	// Serial against two workers on Q1.
	q1 := func(workers int) float64 {
		sec, _ := bestOf(3, func() error {
			tx := c.db.Begin()
			defer tx.Abort()
			var rows []int // one counter per partition: partitions run concurrently
			return engine.Scan(tx, tpch.LQuantity, tpch.LExtendedprice, tpch.LDiscount, tpch.LTax, tpch.LReturnflag, tpch.LLinestatus).
				FilterInt64Le(tpch.LShipdate, q1Cutoff).Parallel(workers).
				RunPartitioned(func(parts int) error { rows = make([]int, parts); return nil },
					func(part int, _ *vector.Batch, sel []uint32) error {
						rows[part] += len(sel)
						return nil
					})
		})
		return sec
	}
	l.put("engine.par2_speedup_q1", q1(1)/q1(2), "ratio", 3)

	// Pruning: a key-range filter without Plan.Range leaves the work to the
	// zone maps; an equality on l_partkey to the secondary index (built only
	// where the workload asked for one).
	z0, i0 := b.dev.SkipStats()
	lo := b.or.pickLive(c.rng, 0, b.or.nbase).ok
	tx := c.db.Begin()
	_ = engine.Scan(tx, tpch.LQuantity).FilterInt64Range(tpch.LOrderkey, lo, lo+rangeSpan(b.or.nbase)).Parallel(1).
		Run(func(*vector.Batch, []uint32) error { return nil })
	rc := b.or.rows[b.or.pickLive(c.rng, 0, b.or.nbase)]
	_ = engine.Scan(tx, tpch.LQuantity).FilterInt64Eq(tpch.LPartkey, rc.partkey).Parallel(1).
		Run(func(*vector.Batch, []uint32) error { return nil })
	tx.Abort()
	z1, i1 := b.dev.SkipStats()
	l.put("engine.zone_skipped_blocks", float64(z1-z0), "count", 1)
	l.put("engine.index_skipped_blocks", float64(i1-i0), "count", 1)

	// Allocations per thousand rows scanned.
	allocs := func(fn func(tx pdtstore.Tx)) float64 {
		tx := c.db.Begin()
		defer tx.Abort()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn(tx)
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / (float64(b.or.agg.rows) / 1e3)
	}
	l.put("engine.allocs_per_krow_wide", allocs(func(tx pdtstore.Tx) { c.wide(tx, -1) }), "1/krow", 1)
	l.put("engine.allocs_per_krow_q6", allocs(func(tx pdtstore.Tx) { c.q6(tx, -1) }), "1/krow", 1)

	// Cold reads of one Q6: pool emptied, device counters read around it.
	b.dev.DropCaches()
	by0, rd0 := b.dev.Stats()
	tx = c.db.Begin()
	c.q6(tx, -1)
	tx.Abort()
	by1, rd1 := b.dev.Stats()
	l.put("colstore.cold_reads_per_query", float64(rd1-rd0), "count", 1)
	l.put("colstore.bytes_read_per_query", float64(by1-by0), "B", 1)

	// A 256-op ApplyBatch that is then aborted: the batch resolver and
	// Trans-PDT apply cost in every workload, whatever its own txn shape.
	ms := b.planModifies(c, 256, 0, b.or.nbase)
	ops := make([]table.Op, len(ms))
	for i, m := range ms {
		ops[i] = m.op()
	}
	sec, err := bestOf(3, func() error {
		tx := c.db.Begin()
		defer tx.Abort()
		_, err := tx.ApplyBatch(ops)
		return err
	})
	c.attempted++
	if err != nil {
		c.fail("batch apply probe: %v", err)
	}
	l.put("txn.batch_apply_us_per_op", sec*1e6/float64(len(ops)), "us", 3)
}

// rssPeakMB reads the process's peak resident set from /proc, 0 where absent.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
