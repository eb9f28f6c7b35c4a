package engine_test

// Differential tests for the positional probe and the positional dirty-block
// pass. A model — the sorted slice of visible rows — drives random layer
// stacks (R∘F∘W∘T∘Q over a multi-block store) and answers every probe
// directly; the scan-shaped probe every caller used before Seek existed is
// kept here as a second, independent reference.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pdtstore/internal/colstore"
	"pdtstore/internal/engine"
	"pdtstore/internal/pdt"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

// seekSchema has a two-column sort key whose leading column repeats, so
// probes must tie-break on the second.
var seekSchema = types.MustSchema([]types.Column{
	{Name: "a", Kind: types.Int64},
	{Name: "b", Kind: types.String},
	{Name: "v", Kind: types.Int64},
	{Name: "s", Kind: types.String},
}, []int{0, 1})

func seekRow(a int64, b string, v int64) types.Row {
	return types.Row{types.Int(a), types.Str(b), types.Int(v), types.Str(fmt.Sprintf("p%d", v%5))}
}

// stackModel is a stable store, the PDT layers stacked over it bottom-to-top,
// and the visible image they produce.
type stackModel struct {
	store  *colstore.Store
	layers []*pdt.PDT
	rows   []types.Row
}

func keyOf(r types.Row) types.Row { return types.Row{r[0], r[1]} }

func (m *stackModel) lowerBound(key types.Row) int {
	return sort.Search(len(m.rows), func(i int) bool { return types.CompareRows(keyOf(m.rows[i]), key) >= 0 })
}

// newStack loads n stable rows (a = 10·i/3, b cycling, so each a-group holds
// three rows) at the given block size.
func newStack(t testing.TB, n, blockRows int, compressed bool) *stackModel {
	t.Helper()
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = seekRow(int64(i/3*10), fmt.Sprintf("k%d", i%3*2), int64(i))
	}
	store, err := colstore.BulkLoad(seekSchema, nil, blockRows, compressed, rows)
	if err != nil {
		t.Fatal(err)
	}
	return &stackModel{store: store, rows: rows}
}

// push opens a new top layer.
func (m *stackModel) push() *pdt.PDT {
	p := pdt.New(seekSchema, 4) // small fanout: multi-level trees at test sizes
	m.layers = append(m.layers, p)
	return p
}

func (m *stackModel) top() *pdt.PDT { return m.layers[len(m.layers)-1] }

func (m *stackModel) insert(t testing.TB, row types.Row) bool {
	t.Helper()
	at := m.lowerBound(keyOf(row))
	if at < len(m.rows) && types.CompareRows(keyOf(m.rows[at]), keyOf(row)) == 0 {
		return false
	}
	if err := m.top().Insert(uint64(at), row); err != nil {
		t.Fatal(err)
	}
	m.rows = append(m.rows[:at], append([]types.Row{row}, m.rows[at:]...)...)
	return true
}

func (m *stackModel) deleteAt(t testing.TB, at int) {
	t.Helper()
	if err := m.top().Delete(uint64(at), keyOf(m.rows[at])); err != nil {
		t.Fatal(err)
	}
	m.rows = append(m.rows[:at:at], m.rows[at+1:]...)
}

func (m *stackModel) modifyAt(t testing.TB, at int, v int64) {
	t.Helper()
	if err := m.top().Modify(uint64(at), 2, types.Int(v)); err != nil {
		t.Fatal(err)
	}
	row := m.rows[at].Clone()
	row[2] = types.Int(v)
	m.rows[at] = row
}

// randomOps applies n random updates to the top layer; deleted keys go back
// into the insert pool, so later ops (in this layer or a higher one) re-insert
// them.
func (m *stackModel) randomOps(t testing.TB, rng *rand.Rand, n int, pool *[]types.Row) {
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(m.rows) == 0:
			var row types.Row
			if len(*pool) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(*pool))
				row = (*pool)[j]
				*pool = append((*pool)[:j], (*pool)[j+1:]...)
			} else {
				a := int64(rng.Intn(len(m.rows)+10)/3*10) - 10 + int64(rng.Intn(2)*5)
				row = seekRow(a, fmt.Sprintf("k%d", rng.Intn(7)), int64(1000+i))
			}
			m.insert(t, row)
		case op < 7:
			at := rng.Intn(len(m.rows))
			*pool = append(*pool, m.rows[at])
			m.deleteAt(t, at)
		default:
			m.modifyAt(t, rng.Intn(len(m.rows)), int64(5000+i))
		}
	}
}

// scanSeek is the probe as every caller wrote it before Seek: enter the
// sparse-index range of the key, stream the whole stack through 16-row
// batches, stop at the first row at or past the key.
func scanSeek(t testing.TB, m *stackModel, key types.Row, cols []int) (rid uint64, row types.Row, exact bool) {
	t.Helper()
	scan := append(append([]int(nil), seekSchema.SortKey...), cols...)
	kinds := make([]types.Kind, len(scan))
	for i, c := range scan {
		kinds[i] = seekSchema.Cols[c].Kind
	}
	from, _ := m.store.SIDRange(key, nil)
	src := engine.StackPDTs(m.store.NewScanner(scan, from, m.store.NRows()), scan, from, true, m.layers...)
	if len(m.layers) == 0 {
		var err error
		if src, err = engine.NewSource(engine.TableSpec{Store: m.store}, scan, key, nil); err != nil {
			t.Fatal(err)
		}
	}
	b := vector.NewBatch(kinds, 16)
	for {
		b.Reset()
		n, err := src.Next(b, 16)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return uint64(len(m.rows)), nil, false
		}
		for i := 0; i < n; i++ {
			cmp := b.CompareKey(key, nil, i)
			if cmp > 0 {
				continue
			}
			if cmp == 0 && len(cols) > 0 {
				row = b.Row(i)[len(seekSchema.SortKey):]
			}
			return b.Rids[i], row, cmp == 0
		}
	}
}

// checkSeek probes key through Seek and both references.
func checkSeek(t *testing.T, m *stackModel, key types.Row, label string) {
	t.Helper()
	for _, cols := range [][]int{nil, {3, 0, 2}} {
		rid, row, exact, err := engine.Seek(m.store, key, cols, m.layers...)
		if err != nil {
			t.Fatalf("%s: Seek(%v): %v", label, key, err)
		}
		at := m.lowerBound(key)
		wantExact := at < len(m.rows) && types.CompareRows(keyOf(m.rows[at]), key) == 0
		var wantRow types.Row
		if wantExact && cols != nil {
			wantRow = m.rows[at].Project(cols)
		}
		if rid != uint64(at) || exact != wantExact || types.CompareRows(row, wantRow) != 0 || (row == nil) != (wantRow == nil) {
			t.Fatalf("%s: Seek(%v, cols=%v) = (%d, %v, %v), model says (%d, %v, %v)", label, key, cols, rid, row, exact, at, wantRow, wantExact)
		}
		if srid, srow, sexact := scanSeek(t, m, key, cols); srid != rid || sexact != exact || types.CompareRows(srow, row) != 0 {
			t.Fatalf("%s: Seek(%v, cols=%v) = (%d, %v, %v), scan-shaped probe says (%d, %v, %v)", label, key, cols, rid, row, exact, srid, srow, sexact)
		}
	}
}

// checkSeekKeys resolves a sorted key list in one SeekKeys call — with windows
// that never stretch past their key, that stretch as usual, and that always
// stretch — and holds every answer to the model.
func checkSeekKeys(t *testing.T, m *stackModel, keys []types.Row, label string) {
	t.Helper()
	for _, gap := range []uint64{0, 256, 1 << 40} {
		restore := engine.SetSeekGap(gap)
		next := 0
		err := engine.SeekKeys(m.store, keys, func(j int, rid uint64, exact bool) {
			at := m.lowerBound(keys[j])
			wantExact := at < len(m.rows) && types.CompareRows(keyOf(m.rows[at]), keys[j]) == 0
			if j != next || rid != uint64(at) || exact != wantExact {
				t.Fatalf("%s, gap %d: answer %d (expected key %d of %d, %v) = (%d, %v), model says (%d, %v)", label, gap, j, next, len(keys), keys[j], rid, exact, at, wantExact)
			}
			next++
		}, m.layers...)
		restore()
		if err != nil || next != len(keys) {
			t.Fatalf("%s, gap %d: SeekKeys answered %d of %d keys: %v", label, gap, next, len(keys), err)
		}
	}
}

// sortedSubset keeps each key with probability p and sorts what it keeps.
func sortedSubset(rng *rand.Rand, keys []types.Row, p float64) []types.Row {
	var out []types.Row
	for _, k := range keys {
		if rng.Float64() < p {
			out = append(out, k)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return types.CompareRows(out[i], out[j]) < 0 })
	return out
}

// probeKeys is every key worth asking about: each row ever seen (visible or
// deleted), the gaps around it, every block's first key, and the two ends.
func probeKeys(m *stackModel, extra []types.Row) []types.Row {
	keys := []types.Row{{types.Int(-1000), types.Str("")}, {types.Int(1 << 40), types.Str("zz")}}
	for _, r := range append(append([]types.Row(nil), m.rows...), extra...) {
		keys = append(keys, keyOf(r),
			types.Row{r[0], types.Str(r[1].S + "!")},
			types.Row{types.Int(r[0].I - 1), types.Str("zzz")})
	}
	return keys
}

func TestSeekMatchesScanOnRandomStacks(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newStack(t, 40+rng.Intn(160), []int{4, 16, 32}[seed%3], seed%2 == 0)
		stable := append([]types.Row(nil), m.rows...)
		var pool []types.Row
		sub := rand.New(rand.NewSource(-seed)) // its own stream: the stacks stay what rng draws
		checkAll := func(label string) {
			keys := probeKeys(m, append(pool, stable...))
			for _, key := range keys {
				checkSeek(t, m, key, fmt.Sprintf("seed %d %s", seed, label))
			}
			for _, p := range []float64{1, 0.5, 0.05} {
				checkSeekKeys(t, m, sortedSubset(sub, keys, p), fmt.Sprintf("seed %d %s, %.0f%% of the keys", seed, label, 100*p))
			}
		}
		checkAll("no layers")
		for li, name := range []string{"R", "F", "W", "T", "Q"} {
			m.push()
			if name == "F" && seed%4 == 0 {
				continue // the frozen layer is usually empty
			}
			m.randomOps(t, rng, 10+rng.Intn(40), &pool)
			if err := m.top().Validate(); err != nil {
				t.Fatalf("seed %d layer %s: %v", seed, name, err)
			}
			checkAll(fmt.Sprintf("%d layers (…∘%s)", li+1, name))
		}
		// nil layers are skipped wherever they sit in the stack.
		withNil := &stackModel{store: m.store, rows: m.rows,
			layers: append([]*pdt.PDT{nil, m.layers[0], nil}, m.layers[1:]...)}
		checkSeek(t, withNil, keyOf(m.rows[len(m.rows)/2]), "nil layers")
	}
}

// windowRuns are the run lengths that sit around the probe's window
// boundaries. A first window of one row doubles to 2, 4, 8, …, so a run of
// 2^k - 1 rows puts the row after it first in a new window and a run one
// shorter puts it last in the one before; 16, 17, 47–49 and 70 sit around a
// 16-row first window's boundaries.
var windowRuns = []int{0, 1, 2, 3, 6, 7, 8, 9, 14, 15, 16, 17, 30, 31, 32, 33, 47, 48, 49, 62, 63, 64, 65, 70}

// deleteRun deletes the run visible rows from at on, the first half in the
// top layer and the rest in a new one over it.
func deleteRun(t *testing.T, m *stackModel, at, run int) {
	t.Helper()
	for i := 0; i < run/2; i++ {
		m.deleteAt(t, at)
	}
	m.push()
	for i := run / 2; i < run; i++ {
		m.deleteAt(t, at)
	}
}

// insertRun inserts run rows whose keys lie between the stable rows at-1 and
// at (both of the same a-group), so every one lands at SID at. The even ones
// go to the top layer and the odd ones to a new one over it, so the two
// layers' inserts interleave. It returns the inserted keys in order.
func insertRun(t *testing.T, m *stackModel, at, run int) []types.Row {
	t.Helper()
	lo := m.rows[at-1]
	keys := make([]types.Row, run)
	for i := range keys {
		keys[i] = types.Row{lo[0], types.Str(fmt.Sprintf("%s-%03d", lo[1].S, i))}
	}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			m.push()
		}
		for i := pass; i < run; i += 2 {
			if !m.insert(t, seekRow(keys[i][0].I, keys[i][1].S, int64(3000+i))) {
				t.Fatalf("insert %v: key exists", keys[i])
			}
		}
	}
	return keys
}

// TestSeekTargetedCases pins the situations the stack-open-at-SID argument
// rests on, one by one.
func TestSeekTargetedCases(t *testing.T) {
	const blockRows = 16
	fresh := func() *stackModel {
		m := newStack(t, 200, blockRows, true)
		m.push()
		return m
	}
	at := func(m *stackModel, i int) types.Row { return keyOf(m.rows[i]) }

	t.Run("ghost", func(t *testing.T) {
		m := fresh()
		key := at(m, 50)
		m.deleteAt(t, 50)
		checkSeek(t, m, key, "deleted in R")
		m.push()
		checkSeek(t, m, key, "deleted in R, empty W")
	})
	t.Run("reinserted same layer", func(t *testing.T) {
		m := fresh()
		row := m.rows[50]
		m.deleteAt(t, 50)
		m.insert(t, seekRow(row[0].I, row[1].S, 777))
		checkSeek(t, m, keyOf(row), "delete+insert in R")
	})
	t.Run("reinserted higher layer", func(t *testing.T) {
		m := fresh()
		row := m.rows[50]
		m.deleteAt(t, 50)
		m.push()
		m.insert(t, seekRow(row[0].I, row[1].S, 778))
		checkSeek(t, m, keyOf(row), "delete in R, insert in W")
		m.push()
		m.deleteAt(t, 50)
		checkSeek(t, m, keyOf(row), "…deleted again in T")
	})
	t.Run("layer-only insert", func(t *testing.T) {
		m := fresh()
		m.push()
		m.insert(t, seekRow(165, "k1", 1))
		checkSeek(t, m, types.Row{types.Int(165), types.Str("k1")}, "insert in W")
		checkSeek(t, m, types.Row{types.Int(165), types.Str("k0")}, "just below it")
	})
	t.Run("modified in several layers", func(t *testing.T) {
		m := fresh()
		key := at(m, 77)
		for i := 0; i < 3; i++ {
			m.modifyAt(t, 77, int64(900+i))
			m.push()
		}
		checkSeek(t, m, key, "modify in R, W, T")
	})
	t.Run("block first key", func(t *testing.T) {
		m := fresh()
		for b := 0; b < 200/blockRows; b++ {
			checkSeek(t, m, at(m, b*blockRows), "clean")
		}
		m.deleteAt(t, 3*blockRows)   // the first key of block 3 becomes a ghost
		m.deleteAt(t, 5*blockRows-2) // rows shift: not a block start any more
		m.insert(t, seekRow(m.rows[4*blockRows][0].I, "k0!", 5))
		for _, key := range probeKeys(m, nil) {
			checkSeek(t, m, key, "block starts under a delta")
		}
	})
	t.Run("ends and empty store", func(t *testing.T) {
		m := fresh()
		m.insert(t, seekRow(-50, "a", 1))
		m.insert(t, seekRow(99999, "z", 2))
		for _, key := range []types.Row{
			{types.Int(-60), types.Str("")}, {types.Int(-50), types.Str("a")}, {types.Int(-40), types.Str("")},
			{types.Int(99999), types.Str("y")}, {types.Int(99999), types.Str("z")}, {types.Int(99999), types.Str("zz")}} {
			checkSeek(t, m, key, "table ends")
		}
		empty := newStack(t, 0, blockRows, false)
		checkSeek(t, empty, types.Row{types.Int(1), types.Str("x")}, "empty store, no layers")
		empty.push()
		checkSeek(t, empty, types.Row{types.Int(1), types.Str("x")}, "empty store, empty layer")
		empty.insert(t, seekRow(5, "x", 1))
		empty.push()
		empty.insert(t, seekRow(3, "x", 2))
		for _, a := range []int64{1, 3, 4, 5, 6} {
			checkSeek(t, empty, types.Row{types.Int(a), types.Str("x")}, "empty store, inserts only")
		}
	})
	t.Run("run of deletes after the seek point", func(t *testing.T) {
		// A run of deleted rows from the seek point on, split over two
		// layers: the one-row window must grow (1, 2, 4, …) before a row
		// shows up (windowRuns sit around each boundary).
		for _, run := range windowRuns {
			m := fresh()
			key, next := at(m, 40), at(m, 40+run)
			deleteRun(t, m, 40, run)
			checkSeek(t, m, key, fmt.Sprintf("first of %d deleted keys", run))
			checkSeek(t, m, next, fmt.Sprintf("survivor after %d deleted keys", run))
			if rid, _, exact, err := engine.Seek(m.store, key, nil, m.layers...); err != nil || exact != (run == 0) || rid != 40 {
				t.Fatalf("Seek over %d ghosts = (%d, %v, %v)", run, rid, exact, err)
			}
		}
	})
	t.Run("run of smaller inserts at the seek point", func(t *testing.T) {
		// Stable row 40's lower bound is SID 40, where a run of layer
		// inserts with smaller keys lands, split over two layers: the window
		// grows over them as over a run of deletes.
		for _, run := range windowRuns {
			m := fresh()
			key := at(m, 40)
			inserted := insertRun(t, m, 40, run)
			checkSeek(t, m, key, fmt.Sprintf("stable row after %d smaller inserts", run))
			for _, k := range inserted {
				checkSeek(t, m, k, fmt.Sprintf("one of %d inserts at one SID", run))
			}
			if rid, _, exact, err := engine.Seek(m.store, key, nil, m.layers...); err != nil || !exact || rid != uint64(40+run) {
				t.Fatalf("Seek past %d inserts = (%d, %v, %v)", run, rid, exact, err)
			}
		}
	})
	t.Run("run of inserts at one SID", func(t *testing.T) {
		// Append-only keys: 100 inserts all at SID == NRows, walked linearly.
		m := fresh()
		for i := 0; i < 100; i++ {
			m.insert(t, seekRow(int64(100000+i), "k", int64(i)))
		}
		for _, i := range []int64{0, 57, 99, 100} {
			checkSeek(t, m, types.Row{types.Int(100000 + i), types.Str("k")}, "appended run")
		}
	})
	t.Run("bad key", func(t *testing.T) {
		m := fresh()
		if _, _, _, err := engine.Seek(m.store, types.Row{types.Int(1)}, nil, m.layers...); err == nil {
			t.Error("prefix key accepted")
		}
		if _, _, _, err := engine.Seek(m.store, at(m, 1), []int{9}, m.layers...); err == nil {
			t.Error("out-of-range column accepted")
		}
	})
}

// TestSeekKeysTargetedCases pins the shapes only a key list takes: windows
// that end between keys, keys far apart, repeats, and a store with no rows.
func TestSeekKeysTargetedCases(t *testing.T) {
	keysAt := func(m *stackModel, idx ...int) []types.Row {
		keys := make([]types.Row, len(idx))
		for i, at := range idx {
			keys[i] = keyOf(m.rows[at])
		}
		return keys
	}
	t.Run("empty store", func(t *testing.T) {
		m := newStack(t, 0, 16, false)
		var keys []types.Row
		for i := 0; i < 2000; i++ {
			keys = append(keys, types.Row{types.Int(int64(i)), types.Str("x")})
		}
		checkSeekKeys(t, m, keys, "no layers")
		m.push()
		m.insert(t, seekRow(700, "x", 1))
		m.push()
		m.insert(t, seekRow(5000, "x", 2))
		checkSeekKeys(t, m, keys, "inserts only")
		// A load's shape: one window for the whole list, none per key.
		allocs := func(keys []types.Row) float64 {
			return warmAllocs(func() {
				if err := engine.SeekKeys(m.store, keys, func(int, uint64, bool) {}, m.layers...); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, all := allocs(keys[:10]), allocs(keys); all > few {
			t.Errorf("SeekKeys into an empty store allocates %v objects for %d keys, %v for 10", all, len(keys), few)
		}
	})
	t.Run("every key past the end", func(t *testing.T) {
		m := newStack(t, 300, 16, true)
		m.push()
		m.insert(t, seekRow(5000, "a", 1))
		checkSeekKeys(t, m, []types.Row{
			{types.Int(990), types.Str("zz")}, {types.Int(4000), types.Str("")}, {types.Int(5000), types.Str("a")},
			{types.Int(5000), types.Str("b")}, {types.Int(1 << 40), types.Str("")}}, "past the end")
	})
	t.Run("deletes spanning the gap between two keys", func(t *testing.T) {
		m := newStack(t, 2000, 64, true)
		keys := keysAt(m, 299, 300, 650, 1000, 1001)
		for l := 0; l < 2; l++ {
			m.push()
			for i := 0; i < 350; i++ {
				m.deleteAt(t, 300)
			}
		}
		checkSeekKeys(t, m, keys, "700 deleted rows between two keys")
	})
	t.Run("inserts at one SID between two keys", func(t *testing.T) {
		m := newStack(t, 600, 16, true)
		lo, hi := m.rows[200], m.rows[201] // (660, k4) and (670, k0): stable neighbours
		keys := []types.Row{keyOf(lo)}
		for i := 0; i < 24; i++ {
			if i%12 == 0 {
				m.push()
			}
			row := seekRow(lo[0].I, fmt.Sprintf("%s-%02d", lo[1].S, i), int64(i))
			m.insert(t, row)
			if i%3 == 0 {
				keys = append(keys, keyOf(row), types.Row{row[0], types.Str(row[1].S + "!")})
			}
		}
		checkSeekKeys(t, m, append(keys, keyOf(hi)), "24 inserts at one SID")
	})
	t.Run("runs around the window boundaries", func(t *testing.T) {
		// The single-key runs of TestSeekTargetedCases inside a key list,
		// with keys before, in and after each run.
		for _, run := range windowRuns {
			m := newStack(t, 200, 16, true)
			m.push()
			keys := keysAt(m, 38, 40, 40+run, 40+run+1)
			deleteRun(t, m, 40, run)
			checkSeekKeys(t, m, keys, fmt.Sprintf("%d deleted keys", run))

			m = newStack(t, 200, 16, true)
			m.push()
			keys = keysAt(m, 38, 39)
			inserted := insertRun(t, m, 40, run)
			if run > 0 {
				keys = append(keys, inserted[0], inserted[run/2], inserted[run-1])
			}
			keys = append(keys, keyOf(m.rows[40+run]), keyOf(m.rows[41+run]))
			checkSeekKeys(t, m, keys, fmt.Sprintf("%d smaller inserts at one SID", run))
		}
	})
	t.Run("repeated key", func(t *testing.T) {
		m := newStack(t, 300, 16, true)
		m.push()
		m.modifyAt(t, 50, 1)
		ghost := keyOf(m.rows[60])
		m.deleteAt(t, 60)
		k50, k51 := keyOf(m.rows[50]), keyOf(m.rows[51])
		checkSeekKeys(t, m, []types.Row{k50, k50, k50, k51, ghost, ghost}, "repeats")
	})
	t.Run("a key 10k rows past the window", func(t *testing.T) {
		m := newStack(t, 12000, 4096, true)
		m.push()
		m.modifyAt(t, 101, 7)
		m.deleteAt(t, 10050)
		checkSeekKeys(t, m, keysAt(m, 100, 101, 10100), "across two block boundaries")
	})
}

// foldedDirty is the dirty-block set as PruneBlocks computed it before it
// went positional: fold the whole stack to stable coordinates and mark every
// block an entry's SID falls in (the final block also owns SID == hi).
func foldedDirty(t *testing.T, m *stackModel, lo, hi uint64) map[uint64]bool {
	t.Helper()
	var folded *pdt.PDT
	for _, l := range m.layers {
		if l == nil || l.Empty() {
			continue
		}
		if folded == nil {
			folded = l
			continue
		}
		f, err := pdt.Fold(folded, l)
		if err != nil {
			t.Fatal(err)
		}
		folded = f
	}
	dirty := map[uint64]bool{}
	if folded == nil {
		return dirty
	}
	br := uint64(m.store.BlockRows())
	for _, e := range folded.Entries() {
		switch {
		case e.SID >= lo && e.SID < hi:
			dirty[e.SID/br] = true
		case e.SID == hi:
			dirty[(hi-1)/br] = true
		}
	}
	return dirty
}

// keptBlocks runs PruneBlocks with a predicate every zone map excludes, so
// the kept blocks are exactly the ones the dirty pass protected.
func keptBlocks(m *stackModel, lo, hi uint64) map[uint64]bool {
	never := engine.Pred{Col: 0, Op: engine.PredInt64Range, ILo: -1 << 50, IHi: -1 << 49}
	kept := map[uint64]bool{}
	br := uint64(m.store.BlockRows())
	if res := engine.PruneBlocks(m.store, lo, hi, []engine.Pred{never}, m.layers...); res != nil {
		for _, r := range res.Ranges {
			for b := r.Lo / br; b <= (r.Hi-1)/br; b++ {
				kept[b] = true
			}
		}
	}
	return kept
}

func TestPruneDirtySetCoversFoldedStack(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		m := newStack(t, 160+rng.Intn(100), 16, false)
		var pool []types.Row
		n := m.store.NRows()
		for range []string{"R", "F", "W", "T"} {
			m.push()
			// Updates clustered on a few spots, so some blocks stay clean.
			for c := 0; c < 1+rng.Intn(3); c++ {
				centre := rng.Intn(len(m.rows))
				for i := 0; i < 1+rng.Intn(6); i++ {
					at := min(max(centre+rng.Intn(9)-4, 0), len(m.rows)-1)
					switch rng.Intn(3) {
					case 0:
						pool = append(pool, m.rows[at])
						m.deleteAt(t, at)
					case 1:
						m.modifyAt(t, at, int64(rng.Intn(1000)))
					default:
						r := m.rows[at]
						m.insert(t, seekRow(r[0].I, r[1].S+"+", int64(i)))
					}
				}
			}
			if rng.Intn(3) == 0 {
				m.insert(t, seekRow(1<<30+int64(len(m.rows)), "end", 0)) // append at SID == NRows
			}
			for _, rg := range [][2]uint64{{0, n}, {16, 48}, {32, n}, {0, 16}, {n - n%16 - 16, n}} {
				want, got := foldedDirty(t, m, rg[0], rg[1]), keptBlocks(m, rg[0], rg[1])
				for b := range want {
					if !got[b] {
						t.Fatalf("seed %d, %d layers, range [%d,%d): block %d is dirty in the folded stack but was pruned (kept %v, folded %v)",
							seed, len(m.layers), rg[0], rg[1], b, got, want)
					}
				}
				if len(got) > len(want)+2*len(m.layers) {
					t.Errorf("seed %d range [%d,%d): kept %d blocks where the fold dirties %d", seed, rg[0], rg[1], len(got), len(want))
				}
			}
		}
	}
}

// TestPruneWorkFollowsRangeNotDelta: the dirty pass descends once per block
// boundary and layer, so a one-block plan costs the same however many entries
// the layers hold elsewhere.
func TestPruneWorkFollowsRangeNotDelta(t *testing.T) {
	measure := func(entries int) float64 {
		m := newStack(t, 4096, 16, false)
		for l := 0; l < 3; l++ {
			m.push()
			for i := 0; i < entries/3; i++ {
				m.modifyAt(t, 64+(i*7)%(len(m.rows)-64), int64(i)) // nothing below SID 64
			}
		}
		pred := []engine.Pred{{Col: 0, Op: engine.PredInt64Range, ILo: 0, IHi: 10}}
		return testing.AllocsPerRun(50, func() {
			// The block is clean, so its zone map (a in [50, 100]) prunes it.
			if res := engine.PruneBlocks(m.store, 16, 32, pred, m.layers...); res == nil || res.ZoneSkips != 1 {
				t.Fatalf("one clean, excluded block in range, got %+v", res)
			}
		})
	}
	small, large := measure(300), measure(3000)
	if large > small+3 { // a taller tree may add a spine slot or two, never O(entries)
		t.Errorf("PruneBlocks allocations grew with the delta outside the range: %.0f at 300 entries, %.0f at 3000", small, large)
	}
}
