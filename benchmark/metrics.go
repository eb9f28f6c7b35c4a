package main

import "runtime"

// decl declares one metric. BENCHMARK.json lists exactly these, and the
// smoke test holds the two together.
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEndDecl are the metrics a user of the store would see. Every workload
// reports all of them. A timing's bound is at least twice the widest quartile
// spread it showed over ten seeds on any workload (README, "Bounds").
var endToEndDecl = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"q6_ms_p50", "ms", "lower", 0.15},
	{"q1_ms_p50", "ms", "lower", 0.20},
	{"wide_mrows_per_s", "Mrows/s", "higher", 0.25},
	{"range_ms_p50", "ms", "lower", 0.25},
	{"lookup_us_p50", "us", "lower", 0.25},
	{"write_kops_per_s", "kops/s", "higher", 0.25},
	{"checkpoint_ms", "ms", "lower", 0.25},
	{"open_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_row", "B", "lower", 0.01},
}

// perLayerDecl are the metrics of single layers, "<module>.<metric>". They
// carry no bound: they say where an end-to-end change came from.
var perLayerDecl = []decl{
	{Name: "compress.decode_int_mvals_per_s", Unit: "Mvals/s", Better: "higher"},
	{Name: "compress.decode_float_mvals_per_s", Unit: "Mvals/s", Better: "higher"},
	{Name: "compress.decode_str_mvals_per_s", Unit: "Mvals/s", Better: "higher"},
	{Name: "compress.encode_mvals_per_s", Unit: "Mvals/s", Better: "higher"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher"},

	{Name: "storage.read_block_us", Unit: "us", Better: "lower"},
	{Name: "storage.open_segment_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.manifest_swap_ms", Unit: "ms", Better: "lower"},

	{Name: "colstore.scan_hot_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "colstore.cold_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "colstore.bytes_read_per_query", Unit: "B", Better: "lower"},
	{Name: "colstore.pool_blocks", Unit: "count", Better: "lower"},
	{Name: "colstore.bulkload_mrows_per_s", Unit: "Mrows/s", Better: "higher"},

	{Name: "vector.filter_int_mvals_per_s", Unit: "Mvals/s", Better: "higher"},
	{Name: "vector.append_selected_mvals_per_s", Unit: "Mvals/s", Better: "higher"},

	{Name: "pdt.insert_us", Unit: "us", Better: "lower"},
	{Name: "pdt.modify_us", Unit: "us", Better: "lower"},
	{Name: "pdt.delete_us", Unit: "us", Better: "lower"},
	{Name: "pdt.mergescan_overhead_pct_int", Unit: "%", Better: "lower"},
	{Name: "pdt.mergescan_overhead_pct_str", Unit: "%", Better: "lower"},
	{Name: "pdt.fold_entries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "pdt.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "pdt.mem_bytes_per_entry", Unit: "B", Better: "lower"},

	{Name: "vdt.mergescan_overhead_pct_int", Unit: "%", Better: "lower"},
	{Name: "vdt.mergescan_overhead_pct_str", Unit: "%", Better: "lower"},

	{Name: "table.resolve_us_per_op", Unit: "us", Better: "lower"},
	{Name: "table.find_by_key_us", Unit: "us", Better: "lower"},
	{Name: "table.compute_dirty_ms", Unit: "ms", Better: "lower"},
	{Name: "table.dirty_cells_frac", Unit: "ratio", Better: "lower"},
	{Name: "table.materialize_mrows_per_s", Unit: "Mrows/s", Better: "higher"},

	{Name: "engine.plan_setup_us", Unit: "us", Better: "lower"},
	{Name: "engine.rows_examined_per_result_q6", Unit: "ratio", Better: "lower"},
	{Name: "engine.par2_speedup_q1", Unit: "ratio", Better: "higher"},
	{Name: "engine.zone_skipped_blocks", Unit: "count", Better: "higher"},
	{Name: "engine.index_skipped_blocks", Unit: "count", Better: "higher"},
	{Name: "engine.allocs_per_krow_wide", Unit: "1/krow", Better: "lower"},
	{Name: "engine.allocs_per_krow_q6", Unit: "1/krow", Better: "lower"},

	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "index.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "index.skip_ratio_eq", Unit: "ratio", Better: "higher"},

	{Name: "txn.begin_us", Unit: "us", Better: "lower"},
	{Name: "txn.probe_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "txn.batch_apply_us_per_op", Unit: "us", Better: "lower"},
	{Name: "txn.txn_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "txn.aborts", Unit: "count", Better: "lower"},
	{Name: "txn.cross_shard_frac", Unit: "ratio", Better: "lower"},

	{Name: "wal.fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "wal.records_in_tail", Unit: "count", Better: "lower"},

	{Name: "pdtstore.open_notail_ms", Unit: "ms", Better: "lower"},
	{Name: "pdtstore.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "pdtstore.ckpt_mode_shared", Unit: "count", Better: "higher"},
	{Name: "pdtstore.ckpt_mode_incremental", Unit: "count", Better: "higher"},
	{Name: "pdtstore.ckpt_mode_full", Unit: "count", Better: "lower"},
	{Name: "pdtstore.ckpt_bytes_written", Unit: "B", Better: "lower"},
	{Name: "pdtstore.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "pdtstore.generations_max", Unit: "count", Better: "lower"},
	{Name: "pdtstore.dead_block_frac", Unit: "ratio", Better: "lower"},
	{Name: "pdtstore.auto_checkpoints", Unit: "count", Better: "lower"},
	{Name: "pdtstore.stall_ms_max", Unit: "ms", Better: "lower"},
	{Name: "pdtstore.scan_ms_p90_under_write", Unit: "ms", Better: "lower"},
	{Name: "pdtstore.close_ms", Unit: "ms", Better: "lower"},
	{Name: "pdtstore.rss_mb_peak", Unit: "MB", Better: "lower"},
	{Name: "pdtstore.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "pdtstore.whole_phase_write_kops_per_s", Unit: "kops/s", Better: "higher"},
	{Name: "pdtstore.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "pdtstore.error_rate", Unit: "ratio", Better: "lower"},
}

// spanUs gathers a span name's durations from both goroutines' tracers.
func (b *bench) spanUs(names ...string) []float64 {
	var out []float64
	for _, c := range []*client{b.main, b.scan} {
		if c == nil || c.tr == nil {
			continue
		}
		for _, n := range names {
			out = append(out, c.tr.durationsUs(n)...)
		}
	}
	return out
}

// perLayer assembles the per-layer metrics of a traced run: span statistics,
// the store's own counters, and the layer probes.
func (b *bench) perLayer(snap *snapshotStats) (layerMetrics, error) {
	l := layerMetrics{}

	// txn: spans around the public transaction calls.
	begins := b.spanUs("Begin")
	l.put("txn.begin_us", median(begins), "us", len(begins))
	probes := b.spanUs("FindByKey", "UpdateByKey", "DeleteByKey", "Insert")
	l.put("txn.probe_us", median(probes), "us", len(probes))
	commits := b.spanUs("Commit")
	l.put("txn.commit_us", median(commits), "us", len(commits))
	l.put("txn.commit_ms_p99", percentile(commits, 0.99)/1e3, "ms", len(commits))
	txns := append(append([]float64(nil), b.writes.all["txn_ms"]...), b.tracedWrites.all["txn_ms"]...)
	l.put("txn.txn_ms_p50", median(txns), "ms", len(txns))
	l.put("txn.aborts", float64(b.aborts), "count", int(b.writeTxns))
	l.put("txn.cross_shard_frac", float64(b.crossShard)/float64(max(b.plannedTxns, 1)), "ratio", int(b.plannedTxns))

	// wal and pdtstore: counters the store exposes, read around the snapshot.
	l.put("wal.records_in_tail", float64(snap.tailRecords), "count", 1)
	l.put("wal.bytes_per_op", float64(snap.walBytes)/float64(max(b.tailOps, 1)), "B", int(b.tailOps))
	notail := median(snap.openNoTailMs)
	l.put("pdtstore.open_notail_ms", notail, "ms", len(snap.openNoTailMs))
	opens := snap.reps.all["open_ms"]
	l.put("pdtstore.replay_ms", median(opens)-notail, "ms", len(opens))
	for _, mode := range []string{"shared", "incremental", "full"} {
		l.put("pdtstore.ckpt_mode_"+mode, float64(snap.ckptModes[mode]), "count", 1)
	}
	l.put("pdtstore.ckpt_bytes_written", float64(snap.ckptBytesWritten), "B", 1)
	l.put("pdtstore.write_amp", float64(snap.walBytes+snap.ckptBytesWritten)/float64(max(snap.walBytes, 1)), "ratio", 1)
	l.put("pdtstore.generations_max", float64(snap.generationsMax), "count", 1)
	l.put("pdtstore.dead_block_frac", snap.deadBlockFrac, "ratio", 1)
	l.put("pdtstore.auto_checkpoints", float64(b.autoCkpts), "count", 1)
	l.put("pdtstore.stall_ms_max", percentile(txns, 1), "ms", len(txns))
	q6 := append(append([]float64(nil), b.reads.all["q6_ms"]...), b.tracedReads.all["q6_ms"]...)
	l.put("pdtstore.scan_ms_p90_under_write", percentile(q6, 0.9), "ms", len(q6))
	l.put("pdtstore.close_ms", median(snap.closeMs), "ms", len(snap.closeMs))
	l.put("pdtstore.whole_phase_write_kops_per_s", float64(b.rowOps)/b.writeBusy.Seconds()/1e3, "kops/s", int(b.writeTxns))
	// Tracing overhead: a pass over the read set in traced rounds against
	// untraced ones, both at the reference speed.
	l.put("pdtstore.trace_overhead_pct", 100*(median(b.tracedReads.round["pass_ms"])/median(b.reads.round["pass_ms"])-1), "%", len(b.reads.round["pass_ms"]))
	l.put("colstore.pool_blocks", float64(b.poolBlocks), "count", 1)

	b.probeEngine(l)
	if err := b.runProbes(l, b.probe, snap.dir); err != nil {
		return nil, err
	}

	attempted, failed, _ := b.counts()
	l.put("pdtstore.error_rate", float64(failed)/float64(attempted), "ratio", int(attempted))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.put("pdtstore.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "ms", int(ms.NumGC))
	l.put("pdtstore.rss_mb_peak", rssPeakMB(), "MB", 1)
	return l, nil
}
