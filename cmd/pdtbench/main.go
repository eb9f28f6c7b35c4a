// Command pdtbench regenerates the paper's microbenchmark figures plus the
// write-path and modeled-barrier commit profiles:
//
//	pdtbench -fig 16 [-max 1000000]          PDT maintenance cost vs size
//	pdtbench -fig 17 [-n 1000000]            MergeScan scaling & key type
//	pdtbench -fig 18 [-n 1000000]            single- vs multi-column keys
//	pdtbench -fig update [-json BENCH_update.json]
//	                                         write-path profile: propagate
//	                                         (bulk vs per-entry), commit+WAL,
//	                                         txn batch vs per-op, checkpoint,
//	                                         and update throughput for
//	                                         PDT vs VDT vs in-place
//	pdtbench -fig commit [-writers 1,8,64] [-commits 50] [-barriers 0,2000]
//	                     [-shards 1,4] [-json BENCH_update.json]
//	                                         group commit: commits/s, commit
//	                                         latency percentiles and fsync
//	                                         counts vs concurrent writers,
//	                                         barrier latency and shard count
//	                                         on durable logs — the sequencer's
//	                                         batching vs the per-commit-fsync
//	                                         baseline, and shard-per-core
//	                                         writes (one sequencer + WAL
//	                                         stream per key-range shard)
//	                                         vs the single-sequencer path
//
// Output is a plain-text table with one row per parameter combination,
// mirroring the series of the corresponding figure; -fig update additionally
// writes a machine-readable JSON report, and -fig commit merges its rows into
// that report's "commit" sections. End-to-end scan, lookup, recovery and
// online-maintenance numbers come from benchmark/ (bash benchmark/run.sh),
// which checks every answer against an oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pdtstore/internal/bench"
	"pdtstore/internal/table"
)

func main() {
	fig := flag.String("fig", "16", "figure to regenerate: 16, 17, 18, update or commit")
	n := flag.Int("n", 1_000_000, "table size for figures 17/18")
	maxEntries := flag.Int("max", 1_000_000, "PDT size to grow to for figure 16")
	fanout := flag.Int("fanout", 8, "PDT fan-out")
	blockRows := flag.Int("blockrows", 8192, "values per column block")
	jsonPath := flag.String("json", "", "merge -fig update / -fig commit results into this JSON file")
	writers := flag.String("writers", "", "comma-separated writer counts for -fig commit")
	shards := flag.String("shards", "", "comma-separated shard counts for -fig commit (default 1 = unsharded)")
	commits := flag.Int("commits", 0, "commits per writer for -fig commit (0 = default)")
	barriers := flag.String("barriers", "", "comma-separated barrier latencies in us for -fig commit (default 0,2000)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the figure run to this file")
	flag.Parse()
	if *fanout < 3 { // pdt.New would silently build its default fanout instead
		fmt.Fprintf(os.Stderr, "pdtbench: -fanout %d: a PDT needs a fanout of at least 3\n", *fanout)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
			}
		}()
	}

	switch *fig {
	case "16":
		runFig16(*maxEntries, *fanout)
	case "17":
		runFig17(*n, *blockRows)
	case "18":
		runFig18(*n, *blockRows)
	case "update":
		runUpdate(*jsonPath)
	case "commit":
		runCommit(*writers, *barriers, *shards, *commits, *jsonPath)
	default:
		fmt.Fprintf(os.Stderr, "pdtbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// seedUpdateBaseline records the write path as measured on the tree before
// the vectorized write path landed (commit 0104b6c: per-entry Propagate,
// cloning Dump, allocating WAL encode, per-row checkpoint builder, per-op
// transactions), with the same workload generator and sizes runUpdate uses,
// so regenerated reports keep the before/after comparison.
var seedUpdateBaseline = []bench.UpdateRow{
	{Name: "propagate/10k-into-50k", Mode: "seed", NsPerOp: 9536402, BytesPerOp: 6101488, AllocsPerOp: 53793},
	{Name: "commit+propagate/200-into-2k", Mode: "seed", NsPerOp: 210803, BytesPerOp: 234816, AllocsPerOp: 1622},
	{Name: "txn/per-op/64", Mode: "seed", NsPerOp: 22375873, BytesPerOp: 38505465, AllocsPerOp: 185185},
	{Name: "checkpoint/50k+2k", Mode: "seed", NsPerOp: 3271424, BytesPerOp: 7557888, AllocsPerOp: 345},
}

func runUpdate(jsonPath string) {
	cfg := bench.UpdateConfig{}
	rows, err := bench.UpdateProfile(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("Write path: propagate / commit / txn / checkpoint / throughput")
	fmt.Printf("%-32s %12s %12s %12s %12s %14s\n",
		"case", "mode", "ms/op", "KB/op", "allocs/op", "upd/s")
	printUpd := func(r bench.UpdateRow) {
		upd := "-"
		if r.UpdatesPerSec > 0 {
			upd = fmt.Sprintf("%.0f", r.UpdatesPerSec)
		}
		fmt.Printf("%-32s %12s %12.3f %12.1f %12d %14s\n",
			r.Name, r.Mode, r.NsPerOp/1e6, float64(r.BytesPerOp)/1024, r.AllocsPerOp, upd)
	}
	for _, r := range rows {
		printUpd(r)
	}
	fmt.Println("-- seed baseline (pre-vectorized write path) --")
	for _, r := range seedUpdateBaseline {
		printUpd(r)
	}
	if jsonPath == "" {
		return
	}
	if err := mergeReportSections(jsonPath, map[string]any{
		"seed_baseline": seedUpdateBaseline,
		"results":       rows,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: writing %s: %v\n", jsonPath, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", jsonPath)
}

// hostHeader is the run-environment header stamped into every JSON report:
// the figures move with the machine, so a report without the host's shape is
// not reproducible.
type hostHeader struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentHost() hostHeader {
	return hostHeader{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// mergeReportSections rewrites the given top-level sections of a JSON report
// file, preserving every other section (so -fig update and -fig commit can
// share BENCH_update.json without clobbering each other).
func mergeReportSections(path string, sections map[string]any) error {
	report := map[string]json.RawMessage{}
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing existing report: %w", err)
		}
	case !os.IsNotExist(err):
		// An existing-but-unreadable report must not be clobbered with only
		// the new sections.
		return err
	}
	// Every write refreshes the host header: the sections being merged were
	// measured on this machine, whatever an older header said.
	sections["host"] = currentHost()
	for key, v := range sections {
		enc, err := json.Marshal(v)
		if err != nil {
			return err
		}
		report[key] = enc
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runCommit(writersCSV, barriersCSV, shardsCSV string, commitsPerWriter int, jsonPath string) {
	cfg := bench.CommitBenchConfig{CommitsPerWriter: commitsPerWriter}
	if writersCSV != "" {
		for _, part := range strings.Split(writersCSV, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "pdtbench: bad -writers value %q\n", part)
				os.Exit(2)
			}
			cfg.Writers = append(cfg.Writers, v)
		}
	}
	if barriersCSV != "" {
		for _, part := range strings.Split(barriersCSV, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "pdtbench: bad -barriers value %q\n", part)
				os.Exit(2)
			}
			cfg.Barriers = append(cfg.Barriers, time.Duration(v)*time.Microsecond)
		}
	}
	if shardsCSV != "" {
		for _, part := range strings.Split(shardsCSV, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "pdtbench: bad -shards value %q\n", part)
				os.Exit(2)
			}
			cfg.Shards = append(cfg.Shards, v)
		}
	}
	rows, err := bench.CommitProfile(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("Group commit: durable commit throughput vs concurrent writers and barrier latency")
	fmt.Printf("%-32s %12s %9s %8s %11s %10s %10s %10s\n",
		"case", "mode", "commits", "fsyncs", "commits/s", "p50 us", "p95 us", "p99 us")
	for _, r := range rows {
		fmt.Printf("%-32s %12s %9d %8d %11.0f %10.1f %10.1f %10.1f\n",
			r.Name, r.Mode, r.Commits, r.Fsyncs, r.CommitsPerSec, r.P50Us, r.P95Us, r.P99Us)
	}
	if jsonPath == "" {
		return
	}
	// A run with a shards axis lands in its own section, keeping the
	// single-sequencer "commit" history intact as the baseline; its
	// shards=1 rows are the same-run unsharded reference.
	section := "commit"
	for _, s := range cfg.Shards {
		if s > 1 {
			section = "commit_sharded"
		}
	}
	if err := mergeReportSections(jsonPath, map[string]any{section: rows}); err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: writing %s: %v\n", jsonPath, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", jsonPath)
}

func runFig16(maxEntries, fanout int) {
	fmt.Printf("Figure 16: PDT maintenance cost vs size (fanout=%d)\n", fanout)
	fmt.Printf("%12s %14s %14s %14s\n", "entries", "insert ns/op", "modify ns/op", "delete ns/op")
	pts := bench.Fig16(bench.Fig16Config{MaxEntries: maxEntries, Samples: 20, Fanout: fanout})
	for _, p := range pts {
		fmt.Printf("%12d %14.0f %14.0f %14.0f\n", p.Size, p.InsertNS, p.ModifyNS, p.DeleteNS)
	}
}

var ratios = []float64{0, 0.5, 1.0, 1.5, 2.0, 2.5}

func runFig17(n, blockRows int) {
	fmt.Printf("Figure 17: MergeScan, %d tuples, 4 data cols + 1 key col\n", n)
	fmt.Printf("%6s %8s %6s %14s %12s %10s\n", "keys", "upd/100", "mode", "scan ms (hot)", "IO MB", "rows")
	for _, strKeys := range []bool{false, true} {
		for _, ratio := range ratios {
			for _, mode := range []table.DeltaMode{table.ModePDT, table.ModeVDT} {
				cfg := bench.ScanConfig{
					Tuples: n, DataCols: 4, KeyCols: 1, StringKeys: strKeys,
					UpdatesPer100: ratio, Mode: mode, BlockRows: blockRows,
				}
				printScanRow(cfg)
			}
		}
	}
}

func runFig18(n, blockRows int) {
	fmt.Printf("Figure 18: MergeScan, %d tuples, 6 columns, 1-4 key columns\n", n)
	fmt.Printf("%6s %8s %8s %6s %14s %12s %10s\n", "keys", "keycols", "upd/100", "mode", "scan ms (hot)", "IO MB", "rows")
	for _, strKeys := range []bool{false, true} {
		for _, ratio := range ratios {
			for keyCols := 1; keyCols <= 4; keyCols++ {
				for _, mode := range []table.DeltaMode{table.ModePDT, table.ModeVDT} {
					cfg := bench.ScanConfig{
						Tuples: n, DataCols: 6 - keyCols, KeyCols: keyCols,
						StringKeys: strKeys, UpdatesPer100: ratio,
						Mode: mode, BlockRows: blockRows,
					}
					printScanRow18(cfg)
				}
			}
		}
	}
}

func keyType(strKeys bool) string {
	if strKeys {
		return "str"
	}
	return "int"
}

func printScanRow(cfg bench.ScanConfig) {
	r := measure(cfg)
	fmt.Printf("%6s %8.1f %6v %14.2f %12.2f %10d\n",
		keyType(cfg.StringKeys), cfg.UpdatesPer100, cfg.Mode,
		r.HotNS/1e6, float64(r.IOBytes)/1e6, r.Rows)
}

func printScanRow18(cfg bench.ScanConfig) {
	r := measure(cfg)
	fmt.Printf("%6s %8d %8.1f %6v %14.2f %12.2f %10d\n",
		keyType(cfg.StringKeys), cfg.KeyCols, cfg.UpdatesPer100, cfg.Mode,
		r.HotNS/1e6, float64(r.IOBytes)/1e6, r.Rows)
}

func measure(cfg bench.ScanConfig) bench.ScanResult {
	tbl, err := bench.BuildScanTable(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
		os.Exit(1)
	}
	r, err := bench.MeasureScan(tbl, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
		os.Exit(1)
	}
	return r
}
