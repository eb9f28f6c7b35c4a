package main

import (
	"fmt"
	"math/rand"
	"time"

	"pdtstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/table"
	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// client is one driver goroutine's handle on the store: it issues the public
// calls, records a span around each, and counts what it attempted and what
// failed or disagreed with the oracle.
type client struct {
	db        *pdtstore.DB
	tr        *tracer
	rng       *rand.Rand
	attempted int64
	failed    int64
	firstErr  error
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf(format, args...)
	}
}

func (c *client) begin(parent int) pdtstore.Tx {
	sp := c.tr.begin("Begin", parent)
	tx := c.db.Begin()
	c.tr.end(sp)
	return tx
}

func (c *client) abort(tx pdtstore.Tx, parent int) {
	sp := c.tr.begin("Abort", parent)
	if err := tx.Abort(); err != nil {
		c.fail("abort: %v", err)
	}
	c.tr.end(sp)
}

func (c *client) commit(tx pdtstore.Tx, parent int) bool {
	sp := c.tr.begin("Commit", parent)
	err := tx.Commit()
	c.tr.end(sp)
	if err != nil {
		c.fail("commit: %v", err)
		return false
	}
	return true
}

// run executes a plan serially on the calling goroutine, inside a Plan.Run span.
func (c *client) run(p *engine.Plan, parent int, fn func(b *vector.Batch, sel []uint32) error) error {
	sp := c.tr.begin("Plan.Run", parent)
	err := p.Parallel(1).Run(fn)
	c.tr.end(sp)
	return err
}

// ---- read set ---------------------------------------------------------------

// q6 is TPC-H Q6's plan: two projected columns, three filter columns.
func (c *client) q6(tx pdtstore.Tx, parent int) (sum float64, n int64, err error) {
	p := engine.Scan(tx, tpch.LExtendedprice, tpch.LDiscount).
		FilterInt64Range(tpch.LShipdate, q6Lo, q6Hi).
		FilterFloat64Range(tpch.LDiscount, 0.05, 0.07).
		FilterFloat64Lt(tpch.LQuantity, 24)
	err = c.run(p, parent, func(b *vector.Batch, sel []uint32) error {
		price, disc := b.Vecs[0].F, b.Vecs[1].F
		for _, i := range sel {
			sum += price[i] * disc[i]
		}
		n += int64(len(sel))
		return nil
	})
	return sum, n, err
}

// q1 is TPC-H Q1's plan: six projected columns, a shipdate filter and a
// group-by sink over (returnflag, linestatus).
func (c *client) q1(tx pdtstore.Tx, parent int) (g [3][2]q1Group, err error) {
	p := engine.Scan(tx, tpch.LQuantity, tpch.LExtendedprice, tpch.LDiscount, tpch.LTax, tpch.LReturnflag, tpch.LLinestatus).
		FilterInt64Le(tpch.LShipdate, q1Cutoff)
	err = c.run(p, parent, func(b *vector.Batch, sel []uint32) error {
		qty, price, disc, tax := b.Vecs[0].F, b.Vecs[1].F, b.Vecs[2].F, b.Vecs[3].F
		rf, ls := b.Vecs[4].S, b.Vecs[5].S
		for _, i := range sel {
			cell := &g[rfIndex(rf[i][0])][lsIndex(ls[i][0])]
			cell.n++
			cell.qty += qty[i]
			cell.price += price[i]
			cell.discPrice += price[i] * (1 - disc[i])
			cell.charge += price[i] * (1 - disc[i]) * (1 + tax[i])
		}
		return nil
	})
	return g, err
}

var allCols = func() []int {
	cols := make([]int, tpch.LineitemSchema.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return cols
}()

// wide scans all 16 columns into the pipeline's batches and touches every
// string so a lazily materialising vector could not skip the work.
func (c *client) wide(tx pdtstore.Tx, parent int) (rows, strBytes int64, err error) {
	err = c.run(engine.Scan(tx, allCols...), parent, func(b *vector.Batch, sel []uint32) error {
		rows += int64(len(sel))
		for _, v := range b.Vecs {
			if v.Kind == types.String {
				for _, i := range sel {
					strBytes += int64(len(v.S[i]))
				}
			}
		}
		return nil
	})
	return rows, strBytes, err
}

// rangeSpan is how many order-key units a range query covers: the image has
// 8 orders per 32 keys and 4 lines per order on average, so one key unit is
// one row on average and the span is ~0.1 % of the table.
func rangeSpan(rows int) int64 {
	if s := int64(rows / 1000); s > 8 {
		return s
	}
	return 8
}

// keyRange reads four columns of the rows with order key in [lo, hi] through
// Plan.Range (sparse index) plus an exact filter on the key.
func (c *client) keyRange(tx pdtstore.Tx, lo, hi int64, parent int) (n int64, qty float64, err error) {
	p := engine.Scan(tx, tpch.LOrderkey, tpch.LQuantity, tpch.LExtendedprice, tpch.LShipdate).
		Range(types.Row{types.Int(lo)}, types.Row{types.Int(hi)}).
		FilterInt64Range(tpch.LOrderkey, lo, hi)
	err = c.run(p, parent, func(b *vector.Batch, sel []uint32) error {
		q := b.Vecs[1].F
		for _, i := range sel {
			qty += q[i]
		}
		n += int64(len(sel))
		return nil
	})
	return n, qty, err
}

func (c *client) find(tx pdtstore.Tx, k key, parent int) (types.Row, bool, error) {
	sp := c.tr.begin("FindByKey", parent)
	_, row, found, err := tx.FindByKey(k.row())
	c.tr.end(sp)
	return row, found, err
}

// ---- write set ----------------------------------------------------------------

// mutation is one row op as the driver plans it: what to send to the store
// and how to mirror it into the oracle once the commit is acknowledged.
type mutation struct {
	kind table.OpKind
	k    key
	row  types.Row   // insert
	col  int         // update
	val  types.Value // update
}

func (m mutation) op() table.Op {
	if m.kind == table.OpInsert {
		return table.Op{Kind: table.OpInsert, Row: m.row}
	}
	return table.Op{Kind: m.kind, Key: m.k.row(), Col: m.col, Val: m.val}
}

func (m mutation) mirror(o *oracle) {
	switch m.kind {
	case table.OpInsert:
		o.insert(m.row)
	case table.OpDelete:
		o.delete(m.k)
	default:
		o.modify(m.k, m.col, m.val)
	}
}

var returnFlags = []string{"A", "N", "R"}

// modifyCol draws a new value for one of the three modifiable columns, from
// the generator's own value domain.
func modifyCol(rng *rand.Rand, k key, col int) mutation {
	m := mutation{kind: table.OpUpdate, k: k, col: col}
	switch col {
	case colQty:
		m.val = types.Float(float64(rng.Intn(50) + 1))
	case colDisc:
		m.val = types.Float(float64(rng.Intn(11)) / 100)
	default:
		m.val = types.Str(returnFlags[rng.Intn(3)])
	}
	return m
}

func randomModify(rng *rand.Rand, k key) mutation {
	return modifyCol(rng, k, []int{colQty, colDisc, colRF}[rng.Intn(3)])
}

// apply sends one mutation through the row-at-a-time API.
func (c *client) apply(tx pdtstore.Tx, m mutation, parent int) bool {
	var (
		err   error
		found = true
		name  = "Insert"
	)
	switch m.kind {
	case table.OpDelete:
		name = "DeleteByKey"
	case table.OpUpdate:
		name = "UpdateByKey"
	}
	sp := c.tr.begin(name, parent)
	switch m.kind {
	case table.OpInsert:
		err = tx.Insert(m.row)
	case table.OpDelete:
		found, err = tx.DeleteByKey(m.k.row())
	default:
		found, err = tx.UpdateByKey(m.k.row(), m.col, m.val)
	}
	c.tr.end(sp)
	if err != nil || !found {
		c.fail("%s %v: found=%v err=%v", name, m.k, found, err)
		return false
	}
	return true
}

// applyBatch sends mutations through Tx.ApplyBatch.
func (c *client) applyBatch(tx pdtstore.Tx, ms []mutation, parent int) bool {
	ops := make([]table.Op, len(ms))
	for i, m := range ms {
		ops[i] = m.op()
	}
	sp := c.tr.begin("ApplyBatch", parent)
	n, err := tx.ApplyBatch(ops)
	c.tr.end(sp)
	if err != nil || n != len(ops) {
		c.fail("ApplyBatch: applied %d of %d: %v", n, len(ops), err)
		return false
	}
	return true
}

func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
