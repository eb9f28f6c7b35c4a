package bench

// Write-path workload generator: a three-column int table whose stable keys
// leave gaps for fresh inserts, two consecutive PDT layers over it (the
// input shape of every downward fold), and mixed insert/delete/update op
// sets. The root BenchmarkWritePath and this package's tests share it.

import (
	"math/rand"

	"pdtstore/internal/pdt"
	"pdtstore/internal/table"
	"pdtstore/internal/types"
)

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
// (stable keys are multiples of updStride).
func LoadUpdateTable(n, blockRows int, mode table.DeltaMode) (*table.Table, error) {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = updRow(int64(i+1)*updStride, 0)
	}
	return table.Load(updSchema(), rows, table.Options{Mode: mode, BlockRows: blockRows})
}

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
