package main

import (
	"fmt"
	"math"
	"math/rand"

	"pdtstore/internal/tpch"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// The columns the driver's update ops modify. They are the ones Q1 and Q6
// read, so a lost or misplaced modify shows up in the query checks, and they
// cover a float, a float and a string column.
const (
	colQty  = tpch.LQuantity
	colDisc = tpch.LDiscount
	colRF   = tpch.LReturnflag
)

var (
	q6Lo     = tpch.Days(1994, 1, 1)
	q6Hi     = tpch.Days(1995, 1, 1) - 1
	q1Cutoff = tpch.Days(1998, 12, 1) - 90
)

// key is a lineitem sort key (l_orderkey, l_linenumber).
type key struct{ ok, ln int64 }

func (k key) row() types.Row { return types.Row{types.Int(k.ok), types.Int(k.ln)} }

func keyOf(r types.Row) key { return key{r[tpch.LOrderkey].I, r[tpch.LLinenumber].I} }

// rec is the oracle's pointer-free image of one live row: the fields the
// query checks aggregate over, plus a hash of every column the driver never
// modifies. Keeping it pointer-free keeps a 300k-entry oracle out of the
// garbage collector's mark work, so the driver's own heap does not tax the
// scans it is timing.
type rec struct {
	rest    uint64 // XOR of colHash over all columns except qty, disc, rf
	partkey int64
	ship    int64
	qty     float64
	price   float64
	disc    float64
	tax     float64
	rf, ls  byte
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashInt(col int, v int64) uint64 { return splitmix(uint64(v) ^ uint64(col+1)<<56) }

func hashFloat(col int, v float64) uint64 { return hashInt(col, int64(math.Float64bits(v))) }

func hashStr(col int, s string) uint64 {
	h := uint64(14695981039346656037) ^ uint64(col+1)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return splitmix(h)
}

func hashValue(col int, v types.Value) uint64 {
	switch v.K {
	case types.Float64:
		return hashFloat(col, v.F)
	case types.String:
		return hashStr(col, v.S)
	default:
		return hashInt(col, v.I)
	}
}

func modifiable(col int) bool { return col == colQty || col == colDisc || col == colRF }

// hashRow is the full-row hash: the XOR of per-column hashes, so a modify
// can be mirrored by swapping one column's term.
func hashRow(r types.Row) uint64 {
	var h uint64
	for c, v := range r {
		h ^= hashValue(c, v)
	}
	return h
}

func (r *rec) hash() uint64 {
	return r.rest ^ hashFloat(colQty, r.qty) ^ hashFloat(colDisc, r.disc) ^ hashStr(colRF, string([]byte{r.rf}))
}

func recOf(r types.Row) rec {
	var rest uint64
	for c, v := range r {
		if !modifiable(c) {
			rest ^= hashValue(c, v)
		}
	}
	return rec{
		rest:    rest,
		partkey: r[tpch.LPartkey].I,
		ship:    r[tpch.LShipdate].I,
		qty:     r[tpch.LQuantity].F,
		price:   r[tpch.LExtendedprice].F,
		disc:    r[tpch.LDiscount].F,
		tax:     r[tpch.LTax].F,
		rf:      r[tpch.LReturnflag].S[0],
		ls:      r[tpch.LLinestatus].S[0],
	}
}

// q1Group is one (returnflag, linestatus) group of Q1.
type q1Group struct {
	n                             int64
	qty, price, discPrice, charge float64
}

func rfIndex(b byte) int {
	switch b {
	case 'A':
		return 0
	case 'N':
		return 1
	default:
		return 2
	}
}

func lsIndex(b byte) int {
	if b == 'F' {
		return 0
	}
	return 1
}

// aggs is what the read set must return for a given table state: the row
// count, Q6's sum and Q1's groups. The oracle maintains it incrementally per
// acked op; a brute-force recomputation cross-checks it at the end of a run.
type aggs struct {
	rows  int64
	q6sum float64
	q6n   int64
	q1    [3][2]q1Group
}

func (a *aggs) add(r *rec, sign float64) {
	n := int64(sign)
	a.rows += n
	if r.ship >= q6Lo && r.ship <= q6Hi && r.disc >= 0.05 && r.disc <= 0.07 && r.qty < 24 {
		a.q6sum += sign * r.price * r.disc
		a.q6n += n
	}
	if r.ship <= q1Cutoff {
		g := &a.q1[rfIndex(r.rf)][lsIndex(r.ls)]
		g.n += n
		g.qty += sign * r.qty
		g.price += sign * r.price
		g.discPrice += sign * r.price * (1 - r.disc)
		g.charge += sign * r.price * (1 - r.disc) * (1 + r.tax)
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func (a *aggs) q6Equal(sum float64, n int64) bool { return n == a.q6n && closeTo(sum, a.q6sum) }

func (a *aggs) q1Equal(got *[3][2]q1Group) bool {
	for i := range a.q1 {
		for j := range a.q1[i] {
			w, g := a.q1[i][j], got[i][j]
			if w.n != g.n || !closeTo(w.qty, g.qty) || !closeTo(w.price, g.price) ||
				!closeTo(w.discPrice, g.discPrice) || !closeTo(w.charge, g.charge) {
				return false
			}
		}
	}
	return true
}

func (a *aggs) equal(b *aggs) bool {
	return a.rows == b.rows && a.q6Equal(b.q6sum, b.q6n) && a.q1Equal(&b.q1)
}

// oracle mirrors every acknowledged op. It is the driver's model of what the
// store must contain.
type oracle struct {
	rows map[key]rec
	// keys lists every key that was ever live: the loaded image first, in
	// sort-key order, then inserts in commit order. Picks retry over dead
	// entries, which stay rare at the update ratios the workloads use.
	keys  []key
	nbase int
	agg   aggs
}

func newOracle(rows []types.Row) *oracle {
	o := &oracle{rows: make(map[key]rec, len(rows)+len(rows)/8), keys: make([]key, 0, len(rows)+len(rows)/8), nbase: len(rows)}
	for _, r := range rows {
		o.insert(r)
	}
	return o
}

func (o *oracle) insert(r types.Row) {
	k, rc := keyOf(r), recOf(r)
	o.rows[k] = rc
	o.keys = append(o.keys, k)
	o.agg.add(&rc, 1)
}

func (o *oracle) delete(k key) {
	rc, ok := o.rows[k]
	if !ok {
		panic(fmt.Sprintf("oracle: delete of dead key %v", k))
	}
	o.agg.add(&rc, -1)
	delete(o.rows, k)
}

func (o *oracle) modify(k key, col int, v types.Value) {
	rc, ok := o.rows[k]
	if !ok {
		panic(fmt.Sprintf("oracle: modify of dead key %v", k))
	}
	o.agg.add(&rc, -1)
	switch col {
	case colQty:
		rc.qty = v.F
	case colDisc:
		rc.disc = v.F
	case colRF:
		rc.rf = v.S[0]
	default:
		panic(fmt.Sprintf("oracle: column %d is not modifiable", col))
	}
	o.agg.add(&rc, 1)
	o.rows[k] = rc
}

// pickLive returns a random live key with index in [lo, hi) of o.keys.
func (o *oracle) pickLive(rng *rand.Rand, lo, hi int) key {
	for {
		k := o.keys[lo+rng.Intn(hi-lo)]
		if _, ok := o.rows[k]; ok {
			return k
		}
	}
}

// rangeExpect is what a key-range query over order keys [lo, hi] must see.
// Line numbers are 1..7 in generated and inserted rows alike, so the range is
// enumerated through the map instead of keeping a second, ordered structure.
func (o *oracle) rangeExpect(lo, hi int64) (n int64, qty float64) {
	for ok := lo; ok <= hi; ok++ {
		for ln := int64(1); ln <= 7; ln++ {
			if rc, live := o.rows[key{ok, ln}]; live {
				n++
				qty += rc.qty
			}
		}
	}
	return n, qty
}

// recompute rebuilds the aggregates by brute force over the live rows.
func (o *oracle) recompute() aggs {
	var a aggs
	for _, rc := range o.rows {
		rc := rc
		a.add(&rc, 1)
	}
	return a
}

// dataset is one seed's generated input: the lineitem image and a pool of
// fresh rows (new order keys in the generator's gap slots) for inserts.
type dataset struct {
	rows []types.Row
	pool []types.Row
}

func generate(sf float64, seed int64) *dataset {
	g := tpch.NewGen(sf, seed)
	_, li := g.OrdersAndLineitems()
	d := &dataset{rows: li}
	// Four rows per order on average: enough for merge's prep (0.8 % of the
	// rows) and a few thousand single inserts, but never more than half of
	// the generator's gap slots, which it fills by rejection sampling.
	poolOrders := len(li)/100 + 2000
	if poolOrders > g.NOrders/2 {
		poolOrders = g.NOrders / 2
	}
	for _, ro := range g.RF1(poolOrders) {
		d.pool = append(d.pool, ro.Lineitems...)
	}
	return d
}

// hashBatch XORs column hashes into per-row hashes for a scanned batch whose
// vectors hold all schema columns in order.
func hashBatch(b *vector.Batch, sel []uint32, out []uint64) []uint64 {
	out = out[:0]
	for range sel {
		out = append(out, 0)
	}
	for c, v := range b.Vecs {
		switch v.Kind {
		case types.Float64:
			for j, i := range sel {
				out[j] ^= hashFloat(c, v.F[i])
			}
		case types.String:
			for j, i := range sel {
				out[j] ^= hashStr(c, v.S[i])
			}
		default:
			for j, i := range sel {
				out[j] ^= hashInt(c, v.I[i])
			}
		}
	}
	return out
}
