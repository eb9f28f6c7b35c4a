package bench

// Write-path benchmarks: the paper's actual headline experiments are update
// throughput and merge (propagate/checkpoint) cost, not scans. This file
// measures them along the axes of §4's update study:
//
//   - Propagate: folding a 10k-entry layer into a 50k-entry PDT, the bulk
//     merge (pdt.Fold) vs the per-entry Algorithm 7 (Propagate on a snapshot).
//   - Commit+fold: the tail of Txn.Commit — WAL append of the serialized
//     Trans-PDT plus its fold onto the Write-PDT (pdt.FoldSnap).
//   - Txn end-to-end: begin, apply a mixed op set (row-at-a-time vs
//     ApplyBatch), commit.
//   - Checkpoint: folding buffered deltas into a fresh stable image through
//     the streaming builder.
//   - Update throughput vs update fraction and table size, PDT (batched and
//     per-op) vs VDT vs "in-place" (every batch immediately merged into the
//     stable image — the no-differential-structure strawman the paper
//     argues against).
//
// cmd/pdtbench's -fig update mode renders these rows and records them in
// BENCH_update.json next to the pre-change seed baseline.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/txn"
	"pdtstore/internal/types"
	"pdtstore/internal/wal"
)

// UpdateRow is one measured write-path case.
type UpdateRow struct {
	Name          string  `json:"name"`
	Mode          string  `json:"mode,omitempty"`
	TableRows     int     `json:"table_rows,omitempty"`
	Updates       int     `json:"updates,omitempty"`
	NsPerOp       float64 `json:"ns_per_op,omitempty"`
	BytesPerOp    int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op,omitempty"`
	UpdatesPerSec float64 `json:"updates_per_sec,omitempty"`
}

// UpdateConfig sizes the profile. Zero fields select the defaults used by
// the recorded baseline (and by BENCH_update.json).
type UpdateConfig struct {
	PropagateBase  int       `json:"propagate_base"`  // base PDT entries (default 50k)
	PropagateDelta int       `json:"propagate_delta"` // folded layer entries (default 10k)
	CommitWrite    int       `json:"commit_write"`    // Write-PDT entries (default 2k)
	CommitTrans    int       `json:"commit_trans"`    // Trans-PDT entries (default 200)
	TxnTableRows   int       `json:"txn_table_rows"`  // table size for txn end-to-end (default 20k)
	TxnOps         int       `json:"txn_ops"`         // ops per transaction (default 64)
	CheckpointRows int       `json:"checkpoint_rows"` // table size for checkpoint (default 50k)
	CheckpointUpds int       `json:"checkpoint_upds"` // buffered deltas (default 2k)
	ThroughputRows []int     `json:"throughput_rows"` // table sizes (default 20k, 100k)
	UpdateFracs    []float64 `json:"update_fracs"`    // update fractions (default .001, .01, .05)
	BatchSize      int       `json:"batch_size"`      // ops per throughput batch (default 512)
}

func (c *UpdateConfig) fill() {
	if c.PropagateBase == 0 {
		c.PropagateBase = 50_000
	}
	if c.PropagateDelta == 0 {
		c.PropagateDelta = 10_000
	}
	if c.CommitWrite == 0 {
		c.CommitWrite = 2_000
	}
	if c.CommitTrans == 0 {
		c.CommitTrans = 200
	}
	if c.TxnTableRows == 0 {
		c.TxnTableRows = 20_000
	}
	if c.TxnOps == 0 {
		c.TxnOps = 64
	}
	if c.CheckpointRows == 0 {
		c.CheckpointRows = 50_000
	}
	if c.CheckpointUpds == 0 {
		c.CheckpointUpds = 2_000
	}
	if len(c.ThroughputRows) == 0 {
		c.ThroughputRows = []int{20_000, 100_000}
	}
	if len(c.UpdateFracs) == 0 {
		c.UpdateFracs = []float64{0.001, 0.01, 0.05}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 512
	}
}

// ----- workload generator ----------------------------------------------------

func updSchema() *types.Schema {
	return types.MustSchema([]types.Column{
		{Name: "k", Kind: types.Int64},
		{Name: "v", Kind: types.Int64},
		{Name: "w", Kind: types.Int64},
	}, []int{0})
}

// updStride spaces the stable keys so gaps always admit fresh insert keys.
const updStride = 1 << 20

func updStableKeys(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i+1) * updStride
	}
	return out
}

func updRow(key, tag int64) types.Row {
	return types.Row{types.Int(key), types.Int(key + tag), types.Int(tag)}
}

// genLayer applies nOps scattered updates (~40% modify, 30% insert, 30%
// delete) to p in one left-to-right pass over the visible image given by
// keys, returning the updated image. Insert keys bisect the surrounding key
// gap, so ghost ordering stays coherent with real sort keys.
func genLayer(p *pdt.PDT, keys []int64, nOps int, seed int64) ([]int64, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, 0, len(keys)+nOps)
	q := float64(nOps) / float64(len(keys)+1)
	ops := 0
	prev := int64(0)
	for i := 0; i < len(keys); {
		k := keys[i]
		if ops < nOps && rng.Float64() < q {
			r := rng.Float64()
			switch {
			case r < 0.3 && k-prev > 1: // insert into the gap before keys[i]
				nk := prev + (k-prev)/2
				if err := p.Insert(uint64(len(out)), updRow(nk, 1)); err != nil {
					return nil, err
				}
				out = append(out, nk)
				prev = nk
				ops++
				continue // revisit keys[i]
			case r < 0.6: // delete keys[i]
				if err := p.Delete(uint64(len(out)), types.Row{types.Int(k)}); err != nil {
					return nil, err
				}
				prev = k
				i++
				ops++
				continue
			default: // modify a data column of keys[i]
				if err := p.Modify(uint64(len(out)), 1+rng.Intn(2), types.Int(int64(ops))); err != nil {
					return nil, err
				}
				ops++
			}
		}
		out = append(out, k)
		prev = k
		i++
	}
	for ops < nOps { // leftover budget: append inserts past the end
		prev += updStride
		if err := p.Insert(uint64(len(out)), updRow(prev, 1)); err != nil {
			return nil, err
		}
		out = append(out, prev)
		ops++
	}
	return out, nil
}

// LoadUpdateTable loads an n-row table with the write-path benchmark schema
// (stable keys are multiples of updStride). Exported for the root
// write-path benchmarks, so they share one workload generator with the
// -fig update profile.
func LoadUpdateTable(n, blockRows int, mode table.DeltaMode) (*table.Table, error) {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = updRow(int64(i+1)*updStride, 0)
	}
	return table.Load(updSchema(), rows, table.Options{Mode: mode, BlockRows: blockRows})
}

func measureUpdate(name, mode string, fn func(b *testing.B)) UpdateRow {
	r := testing.Benchmark(fn)
	return UpdateRow{
		Name:        name,
		Mode:        mode,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// ----- propagate and commit micro-benchmarks ---------------------------------

// BuildPropagatePair returns a base PDT of baseN mixed entries over a
// virtual stable table, plus a consecutive delta layer of deltaN entries
// over the base's output image — the input shape of every downward fold.
// Exported for the root write-path benchmarks.
func BuildPropagatePair(baseN, deltaN int) (base, delta *pdt.PDT, err error) {
	schema := updSchema()
	keys := updStableKeys(4 * baseN)
	base = pdt.New(schema, 0)
	img, err := genLayer(base, keys, baseN, 1)
	if err != nil {
		return nil, nil, err
	}
	delta = pdt.New(schema, 0)
	if _, err := genLayer(delta, img, deltaN, 2); err != nil {
		return nil, nil, err
	}
	return base, delta, nil
}

// propagateRows measures folding a delta layer into a base PDT: the bulk
// merge against the per-entry algorithm on a copy-on-write snapshot.
func propagateRows(cfg UpdateConfig) ([]UpdateRow, error) {
	base, delta, err := BuildPropagatePair(cfg.PropagateBase, cfg.PropagateDelta)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("propagate/%dk-into-%dk", cfg.PropagateDelta/1000, cfg.PropagateBase/1000)
	variants := []struct {
		mode string
		fold func() error
	}{
		{"bulk", func() error { _, err := pdt.Fold(base, delta); return err }},
		{"entrywise", func() error { return base.Snapshot().Propagate(delta) }},
	}
	var out []UpdateRow
	for _, v := range variants {
		out = append(out, measureUpdate(name, v.mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.fold(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	return out, nil
}

// commitRows measures the tail of Txn.Commit: WAL append of the serialized
// Trans-PDT plus the fold onto the master Write-PDT that validateLocked runs.
func commitRows(cfg UpdateConfig) ([]UpdateRow, error) {
	schema := updSchema()
	keys := updStableKeys(10 * cfg.CommitWrite)
	w0 := pdt.New(schema, 0)
	img, err := genLayer(w0, keys, cfg.CommitWrite, 3)
	if err != nil {
		return nil, err
	}
	t0 := pdt.New(schema, 0)
	if _, err := genLayer(t0, img, cfg.CommitTrans, 4); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("commit+fold/%d-into-%dk", cfg.CommitTrans, cfg.CommitWrite/1000)
	log := wal.NewWriter(io.Discard)
	return []UpdateRow{measureUpdate(name, "foldsnap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := log.Append("t", t0.Dump()); err != nil {
				b.Fatal(err)
			}
			if _, err := pdt.FoldSnap(w0, t0); err != nil {
				b.Fatal(err)
			}
		}
	})}, nil
}

// ----- transaction end-to-end ------------------------------------------------

// MixedOps builds one mixed op set over distinct keys of a LoadUpdateTable
// table: inserts of fresh odd keys, deletes and updates of random stable
// keys (misses possible once keys have been deleted). nextOdd carries the
// insert-key sequence across calls.
func MixedOps(rng *rand.Rand, tableRows, n int, nextOdd *int64) []table.Op {
	used := map[int64]bool{}
	ops := make([]table.Op, 0, n)
	for len(ops) < n {
		switch rng.Intn(3) {
		case 0:
			*nextOdd += 2
			ops = append(ops, table.Op{Kind: table.OpInsert, Row: updRow(*nextOdd, 5)})
		case 1:
			k := int64(1+rng.Intn(tableRows)) * updStride
			if used[k] {
				continue
			}
			used[k] = true
			ops = append(ops, table.Op{Kind: table.OpDelete, Key: types.Row{types.Int(k)}})
		default:
			k := int64(1+rng.Intn(tableRows)) * updStride
			if used[k] {
				continue
			}
			used[k] = true
			ops = append(ops, table.Op{Kind: table.OpUpdate, Key: types.Row{types.Int(k)}, Col: 1, Val: types.Int(int64(len(ops)))})
		}
	}
	return ops
}

// txnRows measures begin + apply + commit, row-at-a-time vs ApplyBatch. The
// manager is re-created every 50 transactions so the Write-PDT stays at a
// steady size.
func txnRows(cfg UpdateConfig) ([]UpdateRow, error) {
	tbl, err := LoadUpdateTable(cfg.TxnTableRows, 8192, table.ModePDT)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("txn/%%s/%d", cfg.TxnOps)
	variants := []struct {
		mode  string
		apply func(tx *txn.Txn, ops []table.Op) error
	}{
		{"per-op", func(tx *txn.Txn, ops []table.Op) error {
			for _, op := range ops {
				switch op.Kind {
				case table.OpInsert:
					if err := tx.Insert(op.Row); err != nil {
						return err
					}
				case table.OpDelete:
					if _, err := tx.DeleteByKey(op.Key); err != nil {
						return err
					}
				case table.OpUpdate:
					if _, err := tx.UpdateByKey(op.Key, op.Col, op.Val); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"batch", func(tx *txn.Txn, ops []table.Op) error {
			_, err := tx.ApplyBatch(ops)
			return err
		}},
	}
	var out []UpdateRow
	for _, v := range variants {
		v := v
		out = append(out, measureUpdate(fmt.Sprintf(name, v.mode), "bulk", func(b *testing.B) {
			b.ReportAllocs()
			var mgr *txn.Manager
			rng := rand.New(rand.NewSource(9))
			nextOdd := int64(1)
			for i := 0; i < b.N; i++ {
				if i%50 == 0 {
					b.StopTimer()
					mgr = txn.NewManager(tbl.Store(), tbl.PDT(), txn.Options{WriteBudget: 64 << 20, Log: wal.NewWriter(io.Discard)})
					b.StartTimer()
				}
				tx := mgr.Begin()
				if err := v.apply(tx, MixedOps(rng, cfg.TxnTableRows, cfg.TxnOps, &nextOdd)); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	return out, nil
}

// ----- checkpoint ------------------------------------------------------------

func checkpointRows(cfg UpdateConfig) ([]UpdateRow, error) {
	name := fmt.Sprintf("checkpoint/%dk+%dk", cfg.CheckpointRows/1000, cfg.CheckpointUpds/1000)
	row := measureUpdate(name, "streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tbl, err := LoadUpdateTable(cfg.CheckpointRows, 8192, table.ModePDT)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := genLayer(tbl.PDT(), updStableKeys(cfg.CheckpointRows), cfg.CheckpointUpds, 7); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := tbl.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return []UpdateRow{row}, nil
}

// ----- update throughput -----------------------------------------------------

// throughputCell applies U = frac·N mixed updates to an N-row table and
// reports sustained updates/sec. Modes: PDT via ApplyBatch, PDT and VDT
// row-at-a-time (one-op batches), and "inplace" — PDT batches each immediately folded into
// the stable image by a checkpoint, modeling a store that merges on every
// write batch instead of buffering a differential.
func throughputCell(mode string, tableRows int, frac float64, batchSize int) (UpdateRow, error) {
	nUpd := int(float64(tableRows) * frac)
	if nUpd < batchSize {
		batchSize = nUpd
	}
	if nUpd == 0 {
		return UpdateRow{}, fmt.Errorf("bench: zero updates for frac %g", frac)
	}
	dmode := table.ModePDT
	if mode == "VDT/per-op" {
		dmode = table.ModeVDT
	}
	tbl, err := LoadUpdateTable(tableRows, 4096, dmode)
	if err != nil {
		return UpdateRow{}, err
	}
	rng := rand.New(rand.NewSource(11))
	nextOdd := int64(1)
	start := time.Now()
	for done := 0; done < nUpd; {
		n := batchSize
		if rest := nUpd - done; n > rest {
			n = rest
		}
		ops := MixedOps(rng, tableRows, n, &nextOdd)
		switch mode {
		case "PDT/batch", "inplace":
			if _, err := tbl.ApplyBatch(ops); err != nil {
				return UpdateRow{}, err
			}
			if mode == "inplace" {
				if err := tbl.Checkpoint(); err != nil {
					return UpdateRow{}, err
				}
			}
		case "PDT/per-op", "VDT/per-op":
			for _, op := range ops {
				if _, err := tbl.ApplyBatch([]table.Op{op}); err != nil {
					return UpdateRow{}, err
				}
			}
		default:
			return UpdateRow{}, fmt.Errorf("bench: unknown throughput mode %q", mode)
		}
		done += n
	}
	elapsed := time.Since(start)
	return UpdateRow{
		Name:          fmt.Sprintf("throughput/rows=%d/frac=%g", tableRows, frac),
		Mode:          mode,
		TableRows:     tableRows,
		Updates:       nUpd,
		NsPerOp:       float64(elapsed.Nanoseconds()) / float64(nUpd),
		UpdatesPerSec: float64(nUpd) / elapsed.Seconds(),
	}, nil
}

// ThroughputModes lists the throughput series, PDT vs VDT vs in-place.
var ThroughputModes = []string{"PDT/batch", "PDT/per-op", "VDT/per-op", "inplace"}

// ----- full profile ----------------------------------------------------------

// UpdateProfile runs the complete write-path profile.
func UpdateProfile(cfg UpdateConfig) ([]UpdateRow, error) {
	cfg.fill()
	var out []UpdateRow
	for _, section := range []func(UpdateConfig) ([]UpdateRow, error){
		propagateRows, commitRows, txnRows, checkpointRows,
	} {
		rows, err := section(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	for _, n := range cfg.ThroughputRows {
		for _, frac := range cfg.UpdateFracs {
			for _, mode := range ThroughputModes {
				row, err := throughputCell(mode, n, frac, cfg.BatchSize)
				if err != nil {
					return nil, err
				}
				out = append(out, row)
			}
		}
	}
	return out, nil
}
