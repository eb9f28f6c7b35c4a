// Command benchmark is pdtstore's end-to-end and per-layer benchmark: it
// builds a TPC-H lineitem store through the public API, drives one of four
// workloads against it, checks every result against an in-driver oracle, and
// prints each metric once by name. See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pdtstore/internal/colstore"
)

// scaleFactor is the TPC-H scale every recorded number is taken at: about
// 300 000 lineitem rows, 74 blocks per column.
const scaleFactor = 0.05

// scratchRoot holds everything a run writes, relative to the directory the
// driver is started in (the checkout root). run.sh builds into it too.
const scratchRoot = ".bench_build"

type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	sf          float64
	root        string     // scratch root; every file the run writes lives below it
	setups      int        // base-image builds per run; setup_s uses their median
	reps        int        // open + checkpoint repetitions on snapshot copies (up to 3x when they are cheap)
	writeRounds int        // serial workloads
	tailTxns    int        // hybrid: txns committed after the reopen, the tail open_ms replays
	reads       readCounts // ops per read round; zero selects the workload's own counts
	probeScale  float64    // shrinks the layer probes
}

// defaultConfig is what every recorded run uses; only the smoke test, which
// has two seconds per workload, sets the fields no flag reaches.
func defaultConfig() config {
	return config{seconds: 16, sf: scaleFactor, root: scratchRoot, setups: 3, reps: 7, writeRounds: writeRounds, tailTxns: hybridTail, probeScale: 1}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it
}

// report is everything one run produced.
type report struct {
	endToEnd  map[string]metric
	perLayer  layerMetrics // traced runs only
	tails     []string     // printed lines: median and tail of every latency class, wall clock
	slowdowns []float64    // every sample of the reference clock
	attempted int64
	failed    int64
	firstErr  error
	traceFile string
}

// run executes one workload end to end.
func run(cfg config) (*report, error) {
	sp := findSpec(cfg.workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir, err := os.MkdirTemp(cfg.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var trMain, trScan *tracer
	if cfg.trace {
		trMain, trScan = newTracer(0), newTracer(1<<30)
		cfg.setups = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	b := &bench{cfg: cfg, spec: sp, dir: dir, clk: &refClock{}, dev: colstore.NewDevice(), reads: newSamples(), writes: newSamples(), tracedReads: newSamples(), tracedWrites: newSamples()}
	b.main = newClient(cfg.seed*7919+1, trMain)
	if sp.concurrent {
		b.scan = newClient(cfg.seed*7919+2, trScan)
	}
	if err := b.setUp(); err != nil {
		return nil, err
	}
	defer func() { b.db.Close() }()

	runtime.GC()
	b.warm()

	window := time.Duration(cfg.seconds * float64(time.Second))
	if sp.concurrent {
		b.hybridPhase(window)
		// Make what open_ms and checkpoint_ms see deterministic: scheduler
		// off, everything so far checkpointed, then a fixed tail.
		if err := b.reopen(false); err != nil {
			return nil, err
		}
		if err := b.checkpoint(); err != nil {
			return nil, err
		}
		b.fixedTail(cfg.tailTxns)
	} else {
		if err := b.serialPhase(window); err != nil {
			return nil, err
		}
	}
	b.poolBlocks = b.dev.PoolBlocks()
	snap, err := b.snapshotReps()
	if err != nil {
		return nil, err
	}

	rep := &report{endToEnd: b.endToEnd(snap), tails: b.tails(snap)}
	if cfg.trace {
		if rep.perLayer, err = b.perLayer(snap); err != nil {
			return nil, err
		}
		rep.traceFile = filepath.Join(cfg.root, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeTrace(rep.traceFile, trMain, trScan); err != nil {
			return nil, err
		}
	}
	rep.slowdowns = b.clk.samples
	rep.attempted, rep.failed, rep.firstErr = b.counts()
	return rep, nil
}

// counts sums what the driver goroutines attempted and what failed or
// disagreed with the oracle.
func (b *bench) counts() (attempted, failed int64, first error) {
	for _, c := range []*client{b.main, b.scan} {
		if c == nil {
			continue
		}
		attempted += c.attempted
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return attempted, failed, first
}

// endToEnd assembles the end-to-end metrics: each timed one is the median of
// its per-round (or per-repetition) values at the reference speed.
func (b *bench) endToEnd(snap *snapshotStats) map[string]metric {
	m := map[string]metric{}
	for _, d := range endToEndDecl {
		s := b.reads
		switch d.Name {
		case "write_kops_per_s":
			s = b.writes
		case "checkpoint_ms", "open_ms":
			s = snap.reps
		case "disk_bytes_per_row":
			m[d.Name] = metric{float64(snap.diskBytes) / float64(len(b.or.rows)), d.Unit, 1}
			continue
		case "setup_s":
			m[d.Name] = metric{b.setup.gen + median(b.setup.builds) + b.setup.prep, d.Unit, len(b.setup.builds)}
			continue
		}
		m[d.Name] = metric{median(s.round[d.Name]), d.Unit, len(s.round[d.Name])}
	}
	return m
}

// tails renders, per latency class, the wall-clock median and the highest
// percentile with at least ten samples beyond it, over every op of the run.
func (b *bench) tails(snap *snapshotStats) []string {
	var out []string
	for _, name := range []string{"q6_ms", "q1_ms", "wide_ms", "range_ms", "lookup_us", "txn_ms", "open_ms", "checkpoint_ms"} {
		var xs []float64
		for _, s := range []*samples{b.reads, b.tracedReads, b.writes, b.tracedWrites, snap.reps} {
			xs = append(xs, s.all[name]...)
		}
		label, v := tailPercentile(xs)
		out = append(out, fmt.Sprintf("  %-40s p50 %12.4f  %-5s %12.4f  n=%d", name, median(xs), label, v, len(xs)))
	}
	return out
}

// ---- output -----------------------------------------------------------------------

func hostHeader() string {
	return fmt.Sprintf("host: goos=%s goarch=%s num_cpu=%d gomaxprocs=%d go=%s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %-8s n=%d\n", n, ms[n].Value, ms[n].Unit, ms[n].n)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	var trace, aa int
	var paper bool
	flag.StringVar(&cfg.workload, "workload", "", "clean | merge | cold | hybrid")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for data, key picks and values")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: spans, layer probes, per-layer metrics")
	flag.IntVar(&aa, "aa", 0, "A/A self-check: run every workload n times in two interleaved sets")
	flag.BoolVar(&paper, "paper", false, "print merge ÷ clean beside the Fig. 16-18 probes (runs clean, merge, and merge traced)")
	flag.Parse()
	cfg.trace = trace != 0
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if aa > 0 {
		os.Exit(selfCheck(cfg, aa))
	}
	if paper {
		os.Exit(paperFigures(cfg))
	}

	fmt.Println(hostHeader())
	fmt.Printf("fsync: %.1f us raw floor on %s (real fsync per commit; reads come from the OS cache)\n", fsyncFloorUs(cfg.root, 50), cfg.root)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Printf("workload=%s seed=%d sf=%g seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.sf, cfg.seconds, cfg.trace)
	fmt.Printf("reference clock: slowdown p50 %.3f, max %.3f over %d samples (1 = a quiet development box)\n",
		median(rep.slowdowns), percentile(rep.slowdowns, 1), len(rep.slowdowns))
	printMetrics("end-to-end (median of rounds, at the reference speed):", rep.endToEnd)
	if rep.perLayer != nil {
		printMetrics("per-layer (wall clock):", rep.perLayer)
		fmt.Println("trace file:", rep.traceFile)
	}
	fmt.Println("latency of every op, wall clock:")
	for _, line := range rep.tails {
		fmt.Println(line)
	}
	fmt.Printf("error_rate %g (%d failed or mismatched of %d attempted)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	if rep.firstErr != nil {
		fmt.Println("first failure:", rep.firstErr)
	}
	out := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if cfg.trace {
		out.Metrics = rep.perLayer
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s is not finite\n", name)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if rep.failed != 0 {
		os.Exit(1)
	}
}

// fsyncFloorUs is the median cost of a 64-byte append + fsync in dir.
func fsyncFloorUs(dir string, n int) float64 {
	f, err := os.CreateTemp(dir, "fsync-*")
	if err != nil {
		return math.NaN()
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return math.NaN()
		}
		if err := f.Sync(); err != nil {
			return math.NaN()
		}
		xs = append(xs, float64(time.Since(t0))/1e3)
	}
	return median(xs)
}
