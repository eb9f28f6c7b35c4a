// Command pdtbench regenerates the figures of the paper's evaluation (§4):
//
//	pdtbench -fig 16 [-max 1000000]          PDT maintenance cost vs size
//	pdtbench -fig 17 [-n 1000000]            MergeScan scaling & key type
//	pdtbench -fig 18 [-n 1000000]            single- vs multi-column keys
//	pdtbench -fig 19 [-profile workstation] [-sf 0.05] [-streams 2] [-frac 0.001]
//	                                         the 22 TPC-H queries under
//	                                         no-updates, VDT and PDT delta
//	                                         handling, after refresh streams
//
// Figure 19 runs on one of the paper's two platform profiles: server
// (compressed storage, 3 GB/s; plots 1-2) or workstation (uncompressed,
// 150 MB/s; plots 3-5). Per query it prints hot (in-memory) time, I/O
// volume, modeled cold time, and both times normalized to the VDT run — the
// paper's bar heights.
//
// Output is a plain-text table with one row per parameter combination,
// mirroring the series of the corresponding figure. End-to-end scan, lookup,
// write, recovery and online-maintenance numbers come from benchmark/
// (bash benchmark/run.sh), which checks every answer against an oracle.
package main

import (
	"flag"
	"fmt"
	"os"

	"pdtstore/internal/bench"
	"pdtstore/internal/table"
)

func main() {
	fig := flag.String("fig", "16", "figure to regenerate: 16, 17, 18 or 19")
	n := flag.Int("n", 1_000_000, "table size for figures 17/18")
	maxEntries := flag.Int("max", 1_000_000, "PDT size to grow to for figure 16")
	fanout := flag.Int("fanout", 8, "PDT fan-out")
	blockRows := flag.Int("blockrows", 8192, "values per column block")
	profile := flag.String("profile", "workstation", "figure 19 platform: server (compressed) or workstation (uncompressed)")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor for figure 19 (paper: 30 server / 10 workstation)")
	streams := flag.Int("streams", 2, "refresh stream pairs to apply for figure 19")
	frac := flag.Float64("frac", 0.001, "fraction of orders touched per refresh stream for figure 19")
	flag.Parse()
	if *fanout < 3 { // pdt.New would silently build its default fanout instead
		fmt.Fprintf(os.Stderr, "pdtbench: -fanout %d: a PDT needs a fanout of at least 3\n", *fanout)
		os.Exit(2)
	}

	switch *fig {
	case "16":
		runFig16(*maxEntries, *fanout)
	case "17":
		runFig17(*n, *blockRows)
	case "18":
		runFig18(*n, *blockRows)
	case "19":
		runFig19(*profile, *sf, *streams, *frac, *blockRows)
	default:
		fmt.Fprintf(os.Stderr, "pdtbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
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

func runFig19(profile string, sf float64, streams int, frac float64, blockRows int) {
	cfg := bench.TPCHConfig{SF: sf, Streams: streams, UpdateFrac: frac, BlockRows: blockRows}
	switch profile {
	case "server":
		cfg.Compressed = true
		cfg.BandwidthMB = 3000
	case "workstation":
		cfg.Compressed = false
		cfg.BandwidthMB = 150
	default:
		fmt.Fprintf(os.Stderr, "pdtbench: unknown profile %q\n", profile)
		os.Exit(2)
	}

	fmt.Printf("Figure 19 (%s): TPC-H SF-%g, compressed=%v, %d update streams, %.2f%% of orders each\n",
		profile, sf, cfg.Compressed, streams, frac*100)
	rows, err := bench.TPCH(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdtbench: %v\n", err)
		os.Exit(1)
	}

	type cell struct {
		hot, cold float64
		io        uint64
	}
	byQuery := map[int]map[table.DeltaMode]cell{}
	for _, r := range rows {
		if byQuery[r.Query] == nil {
			byQuery[r.Query] = map[table.DeltaMode]cell{}
		}
		byQuery[r.Query][r.Mode] = cell{r.HotMS, r.ColdMS, r.IOBytes}
	}
	fmt.Printf("%4s | %9s %9s %9s | %9s %9s %9s | %8s %8s %8s | %6s %6s\n",
		"Q", "none hot", "VDT hot", "PDT hot",
		"none cold", "VDT cold", "PDT cold",
		"none MB", "VDT MB", "PDT MB", "hotN", "coldN")
	for q := 1; q <= 22; q++ {
		c := byQuery[q]
		n, v, p := c[table.ModeNone], c[table.ModeVDT], c[table.ModePDT]
		hotNorm, coldNorm := 0.0, 0.0
		if v.hot > 0 {
			hotNorm = p.hot / v.hot
		}
		if v.cold > 0 {
			coldNorm = p.cold / v.cold
		}
		fmt.Printf("%4d | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f | %8.2f %8.2f %8.2f | %6.2f %6.2f\n",
			q, n.hot, v.hot, p.hot, n.cold, v.cold, p.cold,
			float64(n.io)/1e6, float64(v.io)/1e6, float64(p.io)/1e6,
			hotNorm, coldNorm)
	}
	fmt.Println("\nhotN/coldN = PDT time normalized to the VDT run (the paper's bar heights; <1 means PDT wins).")
}
