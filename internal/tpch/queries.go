package tpch

// Column-accurate implementations of the 22 TPC-H queries. Every query builds
// its scan as an engine plan — source, typed filter kernels, projection
// pushdown — so I/O and merge cost land exactly where the paper measures
// them, and computes its result over (batch, selection) pairs with the exec
// toolkit plus plain Go. Simplifications relative to the SQL are semantic
// no-ops for the benchmark's purpose (e.g. correlated subqueries become
// two-pass maps) and are noted per query. Each query returns a deterministic
// fingerprint: sorted, formatted result rows.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pdtstore/internal/engine"
	"pdtstore/internal/exec"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// Query is a named TPC-H query kernel.
type Query struct {
	ID   int
	Name string
	Run  func(db *DB) (string, error)
}

// Queries lists all 22 kernels in order.
var Queries = []Query{
	{1, "pricing summary report", Q1}, {2, "minimum cost supplier", Q2},
	{3, "shipping priority", Q3}, {4, "order priority checking", Q4},
	{5, "local supplier volume", Q5}, {6, "forecasting revenue change", Q6},
	{7, "volume shipping", Q7}, {8, "national market share", Q8},
	{9, "product type profit", Q9}, {10, "returned item reporting", Q10},
	{11, "important stock identification", Q11}, {12, "shipping modes priority", Q12},
	{13, "customer distribution", Q13}, {14, "promotion effect", Q14},
	{15, "top supplier", Q15}, {16, "parts/supplier relationship", Q16},
	{17, "small-quantity-order revenue", Q17}, {18, "large volume customer", Q18},
	{19, "discounted revenue", Q19}, {20, "potential part promotion", Q20},
	{21, "suppliers who kept orders waiting", Q21}, {22, "global sales opportunity", Q22},
}

// scan is the one plan constructor of the workload: every query builds its
// scans here, so the fixture's two execution settings reach all of them.
func (db *DB) scan(t *table.Table, cols ...int) *engine.Plan {
	p := engine.Scan(t, cols...).Parallel(db.Workers)
	if db.NoPrune {
		p.NoPrune()
	}
	return p
}

// collect drains a projection of t into one dense batch via the engine.
func (db *DB) collect(t *table.Table, cols ...int) (*vector.Batch, error) {
	return db.scan(t, cols...).Collect()
}

// nationNames returns nationkey -> name and name -> regionkey lookups.
func (db *DB) nationMaps() (map[int64]string, map[int64]int64, error) {
	b, err := db.collect(db.Nation, NNationkey, NName, NRegionkey)
	if err != nil {
		return nil, nil, err
	}
	names := map[int64]string{}
	regions := map[int64]int64{}
	for i := 0; i < b.Len(); i++ {
		names[b.Vecs[0].I[i]] = b.Vecs[1].S[i]
		regions[b.Vecs[0].I[i]] = b.Vecs[2].I[i]
	}
	return names, regions, nil
}

func (db *DB) regionKey(name string) (int64, error) {
	b, err := db.scan(db.Region, RRegionkey).FilterStrEq(RName, name).Collect()
	if err != nil {
		return 0, err
	}
	if b.Len() == 0 {
		return 0, fmt.Errorf("tpch: region %q missing", name)
	}
	return b.Vecs[0].I[0], nil
}

func yearOf(days int64) int {
	return time.Unix(days*86400, 0).UTC().Year()
}

func lines(rows []string) string { return strings.Join(rows, "\n") }

// Q1 — Pricing Summary Report: one pass over lineitem, grouped by
// (returnflag, linestatus). The shipdate cutoff runs as a typed kernel on an
// unprojected column; group keys build in a reused scratch buffer so the
// per-row aggregation path allocates nothing. The aggregation runs
// partitioned: each scan partition folds into its own GroupAgg, and the
// partials merge in partition order afterwards — parallel end to end, with a
// result independent of how partitions landed on workers.
func Q1(db *DB) (string, error) {
	cutoff := Days(1998, 12, 1) - 90
	type q1part struct {
		agg *exec.GroupAgg // qty, extprice, discprice, charge
		kb  []byte
	}
	var parts []q1part
	err := db.scan(db.Lineitem,
		LQuantity, LExtendedprice, LDiscount, LTax, LReturnflag, LLinestatus).
		FilterInt64Le(LShipdate, cutoff).
		RunPartitioned(
			func(n int) error { parts = make([]q1part, n); return nil },
			func(part int, b *vector.Batch, sel []uint32) error {
				pt := &parts[part]
				if pt.agg == nil {
					pt.agg = exec.NewGroupAgg(4)
				}
				qtyC, priceC, discC, taxC := b.Vecs[0].F, b.Vecs[1].F, b.Vecs[2].F, b.Vecs[3].F
				rfC, lsC := b.Vecs[4].S, b.Vecs[5].S
				for _, i := range sel {
					rf, ls := rfC[i], lsC[i]
					pt.kb = append(append(append(pt.kb[:0], rf...), 0), ls...)
					cells := pt.agg.TouchKey(pt.kb, func() types.Row {
						return types.Row{types.Str(rf), types.Str(ls)}
					})
					qty, price, disc, tax := qtyC[i], priceC[i], discC[i], taxC[i]
					cells[0].Add(qty)
					cells[1].Add(price)
					cells[2].Add(price * (1 - disc))
					cells[3].Add(price * (1 - disc) * (1 + tax))
				}
				return nil
			})
	if err != nil {
		return "", err
	}
	agg := exec.NewGroupAgg(4)
	for i := range parts {
		if parts[i].agg != nil {
			agg.Merge(parts[i].agg)
		}
	}
	var out []string
	for _, r := range agg.Results() {
		out = append(out, exec.FormatRow(r.Key[0].S, r.Key[1].S,
			r.Aggs[0].Sum, r.Aggs[1].Sum, r.Aggs[2].Sum, r.Aggs[3].Sum,
			r.Aggs[0].Avg(), r.Aggs[1].Avg(), r.Aggs[0].Count))
	}
	return lines(out), nil
}

// Q2 — Minimum Cost Supplier in EUROPE for size-15 %BRASS parts.
func Q2(db *DB) (string, error) {
	names, regionOf, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	europe, err := db.regionKey("EUROPE")
	if err != nil {
		return "", err
	}
	wanted := map[int64]string{} // partkey -> mfgr
	err = db.scan(db.Part, PPartkey, PMfgr, PType).
		FilterInt64Eq(PSize, 15).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if strings.HasSuffix(b.Vecs[2].S[i], "BRASS") {
					wanted[b.Vecs[0].I[i]] = b.Vecs[1].S[i]
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SName, SNationkey, SAcctbal)
	if err != nil {
		return "", err
	}
	suppInfo := map[int64]int{} // suppkey -> row index (European only)
	for i := 0; i < supp.Len(); i++ {
		if regionOf[supp.Vecs[2].I[i]] == europe {
			suppInfo[supp.Vecs[0].I[i]] = i
		}
	}
	type best struct {
		cost float64
		row  int
	}
	mins := map[int64]best{}
	err = db.scan(db.PartSupp, PSPartkey, PSSuppkey, PSSupplycost).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				pk := b.Vecs[0].I[i]
				if _, ok := wanted[pk]; !ok {
					continue
				}
				si, ok := suppInfo[b.Vecs[1].I[i]]
				if !ok {
					continue
				}
				c := b.Vecs[2].F[i]
				if cur, ok := mins[pk]; !ok || c < cur.cost {
					mins[pk] = best{c, si}
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for pk, m := range mins {
		out = append(out, exec.FormatRow(supp.Vecs[3].F[m.row], supp.Vecs[1].S[m.row],
			names[supp.Vecs[2].I[m.row]], pk, wanted[pk]))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	if len(out) > 100 {
		out = out[:100]
	}
	return lines(out), nil
}

// Q3 — Shipping Priority: top 10 unshipped BUILDING orders by revenue.
func Q3(db *DB) (string, error) {
	date := Days(1995, 3, 15)
	building := map[int64]bool{}
	err := db.scan(db.Customer, CCustkey).
		FilterStrEq(CMktsegment, "BUILDING").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				building[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	type ordInfo struct {
		date int64
		prio int64
	}
	ords := map[int64]ordInfo{}
	err = db.scan(db.Orders, OOrderdate, OOrderkey, OCustkey, OShippriority).
		Range(nil, types.Row{types.DateVal(date - 1)}).
		FilterInt64Le(OOrderdate, date-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if building[b.Vecs[2].I[i]] {
					ords[b.Vecs[1].I[i]] = ordInfo{b.Vecs[0].I[i], b.Vecs[3].I[i]}
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	rev := map[int64]float64{}
	err = db.scan(db.Lineitem, LOrderkey, LExtendedprice, LDiscount).
		FilterInt64Ge(LShipdate, date+1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				ok := b.Vecs[0].I[i]
				if _, hit := ords[ok]; hit {
					rev[ok] += b.Vecs[1].F[i] * (1 - b.Vecs[2].F[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for ok, r := range rev {
		out = append(out, exec.FormatRow(r, ok, ords[ok].date, ords[ok].prio))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	if len(out) > 10 {
		out = out[:10]
	}
	return lines(out), nil
}

// Q4 — Order Priority Checking in 1993Q3.
func Q4(db *DB) (string, error) {
	lo, hi := Days(1993, 7, 1), Days(1993, 10, 1)
	late := map[int64]bool{}
	err := db.scan(db.Lineitem, LOrderkey, LCommitdate, LReceiptdate).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if b.Vecs[1].I[i] < b.Vecs[2].I[i] {
					late[b.Vecs[0].I[i]] = true
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	counts := map[string]int{}
	err = db.scan(db.Orders, OOrderkey, OOrderpriority).
		Range(types.Row{types.DateVal(lo)}, types.Row{types.DateVal(hi - 1)}).
		FilterInt64Range(OOrderdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if late[b.Vecs[0].I[i]] {
					counts[b.Vecs[1].S[i]]++
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for p, c := range counts {
		out = append(out, exec.FormatRow(p, c))
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q5 — Local Supplier Volume in ASIA during 1994.
func Q5(db *DB) (string, error) {
	names, regionOf, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	asia, err := db.regionKey("ASIA")
	if err != nil {
		return "", err
	}
	cust, err := db.collect(db.Customer, CCustkey, CNationkey)
	if err != nil {
		return "", err
	}
	custNation := map[int64]int64{}
	for i := 0; i < cust.Len(); i++ {
		if regionOf[cust.Vecs[1].I[i]] == asia {
			custNation[cust.Vecs[0].I[i]] = cust.Vecs[1].I[i]
		}
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SNationkey)
	if err != nil {
		return "", err
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.Len(); i++ {
		suppNation[supp.Vecs[0].I[i]] = supp.Vecs[1].I[i]
	}
	lo, hi := Days(1994, 1, 1), Days(1995, 1, 1)
	ordNation := map[int64]int64{} // orderkey -> customer nation
	err = db.scan(db.Orders, OOrderkey, OCustkey).
		Range(types.Row{types.DateVal(lo)}, types.Row{types.DateVal(hi - 1)}).
		FilterInt64Range(OOrderdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if n, ok := custNation[b.Vecs[1].I[i]]; ok {
					ordNation[b.Vecs[0].I[i]] = n
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	revByNation := map[int64]float64{}
	err = db.scan(db.Lineitem, LOrderkey, LSuppkey, LExtendedprice, LDiscount).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				n, ok := ordNation[b.Vecs[0].I[i]]
				if ok && suppNation[b.Vecs[1].I[i]] == n {
					revByNation[n] += b.Vecs[2].F[i] * (1 - b.Vecs[3].F[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for n, r := range revByNation {
		out = append(out, exec.FormatRow(names[n], r))
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q6 — Forecasting Revenue Change: the canonical selection-vector pipeline —
// three typed kernels narrow the selection, the sink sums two projected
// columns, and the shipdate/quantity filter columns never reach the sink's
// arithmetic.
func Q6(db *DB) (string, error) {
	lo, hi := Days(1994, 1, 1), Days(1995, 1, 1)
	// Partitioned sum: per-partition partial totals folded in partition
	// order, so the float result is the same whatever the worker schedule.
	var partials []float64
	err := db.scan(db.Lineitem, LExtendedprice, LDiscount).
		FilterInt64Range(LShipdate, lo, hi-1).
		FilterFloat64Range(LDiscount, 0.05, 0.07).
		FilterFloat64Lt(LQuantity, 24).
		RunPartitioned(
			func(n int) error { partials = make([]float64, n); return nil },
			func(part int, b *vector.Batch, sel []uint32) error {
				price, disc := b.Vecs[0].F, b.Vecs[1].F
				for _, i := range sel {
					partials[part] += price[i] * disc[i]
				}
				return nil
			})
	if err != nil {
		return "", err
	}
	total := 0.0
	for _, s := range partials {
		total += s
	}
	return exec.FormatRow(total), nil
}

// Q7 — Volume Shipping between FRANCE and GERMANY, 1995–1996.
func Q7(db *DB) (string, error) {
	names, _, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	var fr, de int64 = -1, -1
	for k, n := range names {
		if n == "FRANCE" {
			fr = k
		}
		if n == "GERMANY" {
			de = k
		}
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SNationkey)
	if err != nil {
		return "", err
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.Len(); i++ {
		suppNation[supp.Vecs[0].I[i]] = supp.Vecs[1].I[i]
	}
	cust, err := db.collect(db.Customer, CCustkey, CNationkey)
	if err != nil {
		return "", err
	}
	custNation := map[int64]int64{}
	for i := 0; i < cust.Len(); i++ {
		custNation[cust.Vecs[0].I[i]] = cust.Vecs[1].I[i]
	}
	ordCustNation := map[int64]int64{}
	err = db.scan(db.Orders, OOrderkey, OCustkey).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				ordCustNation[b.Vecs[0].I[i]] = custNation[b.Vecs[1].I[i]]
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	lo, hi := Days(1995, 1, 1), Days(1996, 12, 31)
	vol := map[string]float64{}
	err = db.scan(db.Lineitem, LOrderkey, LSuppkey, LExtendedprice, LDiscount, LShipdate).
		FilterInt64Range(LShipdate, lo, hi).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				sn := suppNation[b.Vecs[1].I[i]]
				cn := ordCustNation[b.Vecs[0].I[i]]
				if (sn == fr && cn == de) || (sn == de && cn == fr) {
					key := fmt.Sprintf("%s|%s|%d", names[sn], names[cn], yearOf(b.Vecs[4].I[i]))
					vol[key] += b.Vecs[2].F[i] * (1 - b.Vecs[3].F[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for k, v := range vol {
		out = append(out, exec.FormatRow(k, v))
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q8 — National Market Share of BRAZIL in AMERICA for one part type.
func Q8(db *DB) (string, error) {
	names, regionOf, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	america, err := db.regionKey("AMERICA")
	if err != nil {
		return "", err
	}
	wanted := map[int64]bool{}
	err = db.scan(db.Part, PPartkey).
		FilterStrEq(PType, "ECONOMY ANODIZED STEEL").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				wanted[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	cust, err := db.collect(db.Customer, CCustkey, CNationkey)
	if err != nil {
		return "", err
	}
	amCust := map[int64]bool{}
	for i := 0; i < cust.Len(); i++ {
		if regionOf[cust.Vecs[1].I[i]] == america {
			amCust[cust.Vecs[0].I[i]] = true
		}
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SNationkey)
	if err != nil {
		return "", err
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.Len(); i++ {
		suppNation[supp.Vecs[0].I[i]] = supp.Vecs[1].I[i]
	}
	lo, hi := Days(1995, 1, 1), Days(1996, 12, 31)
	ordYear := map[int64]int{}
	err = db.scan(db.Orders, OOrderdate, OOrderkey, OCustkey).
		Range(types.Row{types.DateVal(lo)}, types.Row{types.DateVal(hi)}).
		FilterInt64Range(OOrderdate, lo, hi).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if amCust[b.Vecs[2].I[i]] {
					ordYear[b.Vecs[1].I[i]] = yearOf(b.Vecs[0].I[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	totals := map[int]float64{}
	brazil := map[int]float64{}
	err = db.scan(db.Lineitem, LOrderkey, LPartkey, LSuppkey, LExtendedprice, LDiscount).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if !wanted[b.Vecs[1].I[i]] {
					continue
				}
				y, ok := ordYear[b.Vecs[0].I[i]]
				if !ok {
					continue
				}
				v := b.Vecs[3].F[i] * (1 - b.Vecs[4].F[i])
				totals[y] += v
				if names[suppNation[b.Vecs[2].I[i]]] == "BRAZIL" {
					brazil[y] += v
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for y, tot := range totals {
		share := 0.0
		if tot > 0 {
			share = brazil[y] / tot
		}
		out = append(out, exec.FormatRow(y, share))
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q9 — Product Type Profit Measure for %green% parts.
func Q9(db *DB) (string, error) {
	names, _, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	wanted := map[int64]bool{}
	err = db.scan(db.Part, PPartkey).
		FilterStrContains(PName, "green").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				wanted[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SNationkey)
	if err != nil {
		return "", err
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.Len(); i++ {
		suppNation[supp.Vecs[0].I[i]] = supp.Vecs[1].I[i]
	}
	cost := map[[2]int64]float64{}
	err = db.scan(db.PartSupp, PSPartkey, PSSuppkey, PSSupplycost).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if wanted[b.Vecs[0].I[i]] {
					cost[[2]int64{b.Vecs[0].I[i], b.Vecs[1].I[i]}] = b.Vecs[2].F[i]
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	ordYear := map[int64]int{}
	err = db.scan(db.Orders, OOrderdate, OOrderkey).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				ordYear[b.Vecs[1].I[i]] = yearOf(b.Vecs[0].I[i])
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	profit := map[string]float64{}
	err = db.scan(db.Lineitem,
		LOrderkey, LPartkey, LSuppkey, LQuantity, LExtendedprice, LDiscount).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				pk := b.Vecs[1].I[i]
				if !wanted[pk] {
					continue
				}
				sk := b.Vecs[2].I[i]
				c, ok := cost[[2]int64{pk, sk}]
				if !ok {
					continue
				}
				amount := b.Vecs[4].F[i]*(1-b.Vecs[5].F[i]) - c*b.Vecs[3].F[i]
				key := fmt.Sprintf("%s|%d", names[suppNation[sk]], ordYear[b.Vecs[0].I[i]])
				profit[key] += amount
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for k, v := range profit {
		out = append(out, exec.FormatRow(k, v))
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q10 — Returned Item Reporting, 1993Q4 customers, top 20 by lost revenue.
func Q10(db *DB) (string, error) {
	lo, hi := Days(1993, 10, 1), Days(1994, 1, 1)
	ordCust := map[int64]int64{}
	err := db.scan(db.Orders, OOrderkey, OCustkey).
		Range(types.Row{types.DateVal(lo)}, types.Row{types.DateVal(hi - 1)}).
		FilterInt64Range(OOrderdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				ordCust[b.Vecs[0].I[i]] = b.Vecs[1].I[i]
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	rev := map[int64]float64{}
	err = db.scan(db.Lineitem, LOrderkey, LExtendedprice, LDiscount).
		FilterStrEq(LReturnflag, "R").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if ck, ok := ordCust[b.Vecs[0].I[i]]; ok {
					rev[ck] += b.Vecs[1].F[i] * (1 - b.Vecs[2].F[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	names, _, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	cust, err := db.collect(db.Customer, CCustkey, CName, CAcctbal, CNationkey, CPhone)
	if err != nil {
		return "", err
	}
	var out []string
	for i := 0; i < cust.Len(); i++ {
		ck := cust.Vecs[0].I[i]
		if r, ok := rev[ck]; ok {
			out = append(out, exec.FormatRow(r, ck, cust.Vecs[1].S[i],
				cust.Vecs[2].F[i], names[cust.Vecs[3].I[i]], cust.Vecs[4].S[i]))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	if len(out) > 20 {
		out = out[:20]
	}
	return lines(out), nil
}

// Q11 — Important Stock Identification in GERMANY. The value threshold is a
// fixed fraction (0.001) of the national total; dbgen scales it by 1/SF,
// which at bench scale would select almost nothing.
func Q11(db *DB) (string, error) {
	names, _, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SNationkey)
	if err != nil {
		return "", err
	}
	german := map[int64]bool{}
	for i := 0; i < supp.Len(); i++ {
		if names[supp.Vecs[1].I[i]] == "GERMANY" {
			german[supp.Vecs[0].I[i]] = true
		}
	}
	value := map[int64]float64{}
	total := 0.0
	err = db.scan(db.PartSupp, PSPartkey, PSSuppkey, PSAvailqty, PSSupplycost).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				if german[b.Vecs[1].I[i]] {
					v := b.Vecs[3].F[i] * float64(b.Vecs[2].I[i])
					value[b.Vecs[0].I[i]] += v
					total += v
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for pk, v := range value {
		if v > total*0.001 {
			out = append(out, exec.FormatRow(pk, v))
		}
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q12 — Shipping Modes and Order Priority, MAIL/SHIP in 1994. The mode
// IN-list and receipt-date window run as kernels; the commit-vs-receipt and
// ship-vs-commit column comparisons stay in the sink.
func Q12(db *DB) (string, error) {
	lo, hi := Days(1994, 1, 1), Days(1995, 1, 1)
	ordPrio := map[int64]string{}
	err := db.scan(db.Orders, OOrderkey, OOrderpriority).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				ordPrio[b.Vecs[0].I[i]] = b.Vecs[1].S[i]
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	high := map[string]int{}
	low := map[string]int{}
	err = db.scan(db.Lineitem, LOrderkey, LShipdate, LCommitdate, LReceiptdate, LShipmode).
		FilterStrIn(LShipmode, "MAIL", "SHIP").
		FilterInt64Range(LReceiptdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				r := b.Vecs[3].I[i]
				if b.Vecs[2].I[i] >= r || b.Vecs[1].I[i] >= b.Vecs[2].I[i] {
					continue
				}
				mode := b.Vecs[4].S[i]
				p := ordPrio[b.Vecs[0].I[i]]
				if p == "1-URGENT" || p == "2-HIGH" {
					high[mode]++
				} else {
					low[mode]++
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for _, mode := range []string{"MAIL", "SHIP"} {
		out = append(out, exec.FormatRow(mode, high[mode], low[mode]))
	}
	return lines(out), nil
}

// Q13 — Customer Distribution: orders per customer, excluding
// "special…requests" comments, histogrammed.
func Q13(db *DB) (string, error) {
	perCust := map[int64]int{}
	err := db.scan(db.Orders, OCustkey, OComment).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				c := b.Vecs[1].S[i]
				if si := strings.Index(c, "special"); si >= 0 && strings.Contains(c[si:], "requests") {
					continue
				}
				perCust[b.Vecs[0].I[i]]++
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	hist := map[int]int{}
	cust, err := db.collect(db.Customer, CCustkey)
	if err != nil {
		return "", err
	}
	for i := 0; i < cust.Len(); i++ {
		hist[perCust[cust.Vecs[0].I[i]]]++
	}
	var out []string
	for c, n := range hist {
		out = append(out, fmt.Sprintf("%04d|%d", c, n))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return lines(out), nil
}

// Q14 — Promotion Effect, September 1995.
func Q14(db *DB) (string, error) {
	promo := map[int64]bool{}
	err := db.scan(db.Part, PPartkey).
		FilterStrPrefix(PType, "PROMO").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				promo[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	lo, hi := Days(1995, 9, 1), Days(1995, 10, 1)
	promoRev, totalRev := 0.0, 0.0
	err = db.scan(db.Lineitem, LPartkey, LExtendedprice, LDiscount).
		FilterInt64Range(LShipdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				v := b.Vecs[1].F[i] * (1 - b.Vecs[2].F[i])
				totalRev += v
				if promo[b.Vecs[0].I[i]] {
					promoRev += v
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	pct := 0.0
	if totalRev > 0 {
		pct = 100 * promoRev / totalRev
	}
	return exec.FormatRow(pct), nil
}

// Q15 — Top Supplier by 1996Q1 revenue.
func Q15(db *DB) (string, error) {
	lo, hi := Days(1996, 1, 1), Days(1996, 4, 1)
	rev := map[int64]float64{}
	err := db.scan(db.Lineitem, LSuppkey, LExtendedprice, LDiscount).
		FilterInt64Range(LShipdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				rev[b.Vecs[0].I[i]] += b.Vecs[1].F[i] * (1 - b.Vecs[2].F[i])
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	best := 0.0
	for _, r := range rev {
		if r > best {
			best = r
		}
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SName, SAddress, SPhone)
	if err != nil {
		return "", err
	}
	var out []string
	for i := 0; i < supp.Len(); i++ {
		if r, ok := rev[supp.Vecs[0].I[i]]; ok && r == best && best > 0 {
			out = append(out, exec.FormatRow(supp.Vecs[0].I[i], supp.Vecs[1].S[i],
				supp.Vecs[2].S[i], supp.Vecs[3].S[i], r))
		}
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q16 — Parts/Supplier Relationship: distinct non-complaint suppliers per
// (brand, type, size) bucket.
func Q16(db *DB) (string, error) {
	supp, err := db.collect(db.Supplier, SSuppkey, SComment)
	if err != nil {
		return "", err
	}
	complaints := map[int64]bool{}
	for i := 0; i < supp.Len(); i++ {
		c := supp.Vecs[1].S[i]
		if si := strings.Index(c, "Customer"); si >= 0 && strings.Contains(c[si:], "Complaints") {
			complaints[supp.Vecs[0].I[i]] = true
		}
	}
	sizes := map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
	parts, err := db.collect(db.Part, PPartkey, PBrand, PType, PSize)
	if err != nil {
		return "", err
	}
	bucket := map[int64]string{}
	for i := 0; i < parts.Len(); i++ {
		brand, ptype, size := parts.Vecs[1].S[i], parts.Vecs[2].S[i], parts.Vecs[3].I[i]
		if brand == "Brand#45" || strings.HasPrefix(ptype, "MEDIUM POLISHED") || !sizes[size] {
			continue
		}
		bucket[parts.Vecs[0].I[i]] = fmt.Sprintf("%s|%s|%d", brand, ptype, size)
	}
	supSets := map[string]map[int64]bool{}
	err = db.scan(db.PartSupp, PSPartkey, PSSuppkey).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				key, ok := bucket[b.Vecs[0].I[i]]
				if !ok || complaints[b.Vecs[1].I[i]] {
					continue
				}
				if supSets[key] == nil {
					supSets[key] = map[int64]bool{}
				}
				supSets[key][b.Vecs[1].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	var out []string
	for key, set := range supSets {
		out = append(out, fmt.Sprintf("%04d|%s", len(set), key))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	if len(out) > 40 {
		out = out[:40]
	}
	return lines(out), nil
}

// Q17 — Small-Quantity-Order Revenue for Brand#23 MED BOX parts.
func Q17(db *DB) (string, error) {
	wanted := map[int64]bool{}
	err := db.scan(db.Part, PPartkey).
		FilterStrEq(PBrand, "Brand#23").
		FilterStrEq(PContainer, "MED BOX").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				wanted[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	sums := map[int64]*exec.Agg{}
	err = db.scan(db.Lineitem, LPartkey, LQuantity).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				pk := b.Vecs[0].I[i]
				if wanted[pk] {
					if sums[pk] == nil {
						sums[pk] = &exec.Agg{}
					}
					sums[pk].Add(b.Vecs[1].F[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	total := 0.0
	err = db.scan(db.Lineitem, LPartkey, LQuantity, LExtendedprice).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				pk := b.Vecs[0].I[i]
				if a := sums[pk]; a != nil && b.Vecs[1].F[i] < 0.2*a.Avg() {
					total += b.Vecs[2].F[i]
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	return exec.FormatRow(total / 7), nil
}

// Q18 — Large Volume Customers: orders with more than 300 total quantity.
// (dbgen's threshold; at small scale the result may legitimately be empty.)
func Q18(db *DB) (string, error) {
	qty := map[int64]float64{}
	err := db.scan(db.Lineitem, LOrderkey, LQuantity).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				qty[b.Vecs[0].I[i]] += b.Vecs[1].F[i]
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	big := map[int64]float64{}
	for ok, q := range qty {
		if q > 300 {
			big[ok] = q
		}
	}
	var out []string
	err = db.scan(db.Orders, OOrderdate, OOrderkey, OCustkey, OTotalprice).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				okey := b.Vecs[1].I[i]
				if q, hit := big[okey]; hit {
					out = append(out, exec.FormatRow(b.Vecs[3].F[i], b.Vecs[0].I[i],
						okey, b.Vecs[2].I[i], q))
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	if len(out) > 100 {
		out = out[:100]
	}
	return lines(out), nil
}

// Q19 — Discounted Revenue: three OR-ed (brand, container, quantity) cases.
// The shared shipmode/shipinstruct conjuncts run as kernels; the OR of part
// attributes stays in the sink.
func Q19(db *DB) (string, error) {
	parts, err := db.collect(db.Part, PPartkey, PBrand, PContainer, PSize)
	if err != nil {
		return "", err
	}
	type pinfo struct {
		brand, container string
		size             int64
	}
	info := map[int64]pinfo{}
	for i := 0; i < parts.Len(); i++ {
		info[parts.Vecs[0].I[i]] = pinfo{parts.Vecs[1].S[i], parts.Vecs[2].S[i], parts.Vecs[3].I[i]}
	}
	total := 0.0
	err = db.scan(db.Lineitem, LPartkey, LQuantity, LExtendedprice, LDiscount).
		FilterStrIn(LShipmode, "AIR", "REG AIR").
		FilterStrEq(LShipinstruct, "DELIVER IN PERSON").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				p, ok := info[b.Vecs[0].I[i]]
				if !ok {
					continue
				}
				q := b.Vecs[1].F[i]
				match := (p.brand == "Brand#12" && strings.HasPrefix(p.container, "SM") && q >= 1 && q <= 11 && p.size <= 5) ||
					(p.brand == "Brand#23" && strings.HasPrefix(p.container, "MED") && q >= 10 && q <= 20 && p.size <= 10) ||
					(p.brand == "Brand#34" && strings.HasPrefix(p.container, "LG") && q >= 20 && q <= 30 && p.size <= 15)
				if match {
					total += b.Vecs[2].F[i] * (1 - b.Vecs[3].F[i])
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	return exec.FormatRow(total), nil
}

// Q20 — Potential Part Promotion: CANADA suppliers with surplus stock of
// forest% parts.
func Q20(db *DB) (string, error) {
	names, _, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	forest := map[int64]bool{}
	err = db.scan(db.Part, PPartkey).
		FilterStrPrefix(PName, "forest").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				forest[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	lo, hi := Days(1994, 1, 1), Days(1995, 1, 1)
	shipped := map[[2]int64]float64{}
	err = db.scan(db.Lineitem, LPartkey, LSuppkey, LQuantity).
		FilterInt64Range(LShipdate, lo, hi-1).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				pk := b.Vecs[0].I[i]
				if forest[pk] {
					shipped[[2]int64{pk, b.Vecs[1].I[i]}] += b.Vecs[2].F[i]
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	qualifying := map[int64]bool{}
	err = db.scan(db.PartSupp, PSPartkey, PSSuppkey, PSAvailqty).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				pk, sk := b.Vecs[0].I[i], b.Vecs[1].I[i]
				if !forest[pk] {
					continue
				}
				if float64(b.Vecs[2].I[i]) > 0.5*shipped[[2]int64{pk, sk}] && shipped[[2]int64{pk, sk}] > 0 {
					qualifying[sk] = true
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SName, SAddress, SNationkey)
	if err != nil {
		return "", err
	}
	var out []string
	for i := 0; i < supp.Len(); i++ {
		if qualifying[supp.Vecs[0].I[i]] && names[supp.Vecs[3].I[i]] == "CANADA" {
			out = append(out, exec.FormatRow(supp.Vecs[1].S[i], supp.Vecs[2].S[i]))
		}
	}
	sort.Strings(out)
	return lines(out), nil
}

// Q21 — Suppliers Who Kept Orders Waiting: SAUDI ARABIA suppliers solely
// responsible for late multi-supplier F-orders.
func Q21(db *DB) (string, error) {
	names, _, err := db.nationMaps()
	if err != nil {
		return "", err
	}
	supp, err := db.collect(db.Supplier, SSuppkey, SName, SNationkey)
	if err != nil {
		return "", err
	}
	saudi := map[int64]string{}
	for i := 0; i < supp.Len(); i++ {
		if names[supp.Vecs[2].I[i]] == "SAUDI ARABIA" {
			saudi[supp.Vecs[0].I[i]] = supp.Vecs[1].S[i]
		}
	}
	fOrders := map[int64]bool{}
	err = db.scan(db.Orders, OOrderkey).
		FilterStrEq(OOrderstatus, "F").
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				fOrders[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	type ordState struct {
		supps map[int64]bool
		late  map[int64]bool
	}
	states := map[int64]*ordState{}
	err = db.scan(db.Lineitem, LOrderkey, LSuppkey, LCommitdate, LReceiptdate).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				okey := b.Vecs[0].I[i]
				if !fOrders[okey] {
					continue
				}
				st := states[okey]
				if st == nil {
					st = &ordState{supps: map[int64]bool{}, late: map[int64]bool{}}
					states[okey] = st
				}
				sk := b.Vecs[1].I[i]
				st.supps[sk] = true
				if b.Vecs[3].I[i] > b.Vecs[2].I[i] {
					st.late[sk] = true
				}
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	numwait := map[int64]int{}
	for _, st := range states {
		if len(st.late) != 1 || len(st.supps) < 2 {
			continue
		}
		for sk := range st.late {
			if _, ok := saudi[sk]; ok {
				numwait[sk]++
			}
		}
	}
	var out []string
	for sk, n := range numwait {
		out = append(out, fmt.Sprintf("%06d|%s", n, saudi[sk]))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	if len(out) > 100 {
		out = out[:100]
	}
	return lines(out), nil
}

// Q22 — Global Sales Opportunity: well-funded customers with no orders,
// grouped by phone prefix.
func Q22(db *DB) (string, error) {
	prefixes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	cust, err := db.collect(db.Customer, CCustkey, CPhone, CAcctbal)
	if err != nil {
		return "", err
	}
	sum, n := 0.0, 0
	for i := 0; i < cust.Len(); i++ {
		if cust.Vecs[2].F[i] > 0 && prefixes[cust.Vecs[1].S[i][:2]] {
			sum += cust.Vecs[2].F[i]
			n++
		}
	}
	if n == 0 {
		return "", nil
	}
	avg := sum / float64(n)
	hasOrder := map[int64]bool{}
	err = db.scan(db.Orders, OCustkey).
		Run(func(b *vector.Batch, sel []uint32) error {
			for _, i := range sel {
				hasOrder[b.Vecs[0].I[i]] = true
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	counts := map[string]*exec.Agg{}
	for i := 0; i < cust.Len(); i++ {
		pre := cust.Vecs[1].S[i][:2]
		bal := cust.Vecs[2].F[i]
		if !prefixes[pre] || bal <= avg || hasOrder[cust.Vecs[0].I[i]] {
			continue
		}
		if counts[pre] == nil {
			counts[pre] = &exec.Agg{}
		}
		counts[pre].Add(bal)
	}
	var out []string
	for pre, a := range counts {
		out = append(out, exec.FormatRow(pre, a.Count, a.Sum))
	}
	sort.Strings(out)
	return lines(out), nil
}
