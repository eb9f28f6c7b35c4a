package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a fresh process — the way the pipeline does —
// and returns the metrics of its result line.
func runChild(cfg config, workload string, seed int64, trace bool) (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	if trace {
		cmd.Args = append(cmd.Args, "-trace", "1")
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return res.Metrics, nil
}

// selfCheck is the A/A run: every workload n times in two interleaved sets
// (A, B, A, B, … — the same code both times, each run with its own seed). For
// every end-to-end metric it prints each set's median, the quartile spread
// as a share of the median (what the pipeline gates on), and the gap between
// the two medians, and it fails when a gap or a spread exceeds the metric's
// bound. setup_s is exempt from the spread rule, as it is in the pipeline.
func selfCheck(cfg config, n int) int {
	fmt.Println(hostHeader())
	status := 0
	for _, sp := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			ms, err := runChild(cfg, sp.name, cfg.seed+int64(i), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aa:", err)
				return 2
			}
			for name, m := range ms {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Printf("workload %s (n=%d per set)\n", sp.name, n)
		fmt.Printf("  %-22s %12s %8s %12s %8s %8s %6s\n", "metric", "median A", "iqr A", "median B", "iqr B", "gap", "bound")
		for _, d := range endToEndDecl {
			a, bset := sets[0][d.Name], sets[1][d.Name]
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(bset)
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			gap := (mb - ma) / ma // how much worse B is than A
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > d.Bound || (d.Name != "setup_s" && (spreadA > d.Bound || spreadB > d.Bound)) {
				verdict = "  FAIL"
				status = 1
			}
			fmt.Printf("  %-22s %12.4f %7.2f%% %12.4f %7.2f%% %+7.2f%% %5.0f%%%s\n",
				d.Name, ma, 100*spreadA, mb, 100*spreadB, 100*gap, 100*d.Bound, verdict)
		}
	}
	return status
}

// paperFigures puts the paper's claim on one screen: the end-to-end cost of
// reading through loaded PDTs (merge ÷ clean on every read metric, the shape
// of Figure 19) beside the MergeScan microbenchmark of Figures 17/18 (PDT
// against the value-based VDT, integer and string keys) and the update costs
// of Figure 16. It runs clean and merge untraced and merge once more traced.
func paperFigures(cfg config) int {
	fmt.Println(hostHeader())
	var runs [3]map[string]metric
	for i, r := range []struct {
		workload string
		trace    bool
	}{{"clean", false}, {"merge", false}, {"merge", true}} {
		ms, err := runChild(cfg, r.workload, cfg.seed, r.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			return 2
		}
		runs[i] = ms
	}
	clean, merge, layers := runs[0], runs[1], runs[2]
	fmt.Println("end to end, merge ÷ clean (2.5 % of rows in the PDTs against none):")
	for _, name := range []string{"q6_ms_p50", "q1_ms_p50", "wide_mrows_per_s", "range_ms_p50", "lookup_us_p50"} {
		c, m := clean[name].Value, merge[name].Value
		fmt.Printf("  %-34s %10.4f ÷ %10.4f = %6.3f  (%s)\n", name, m, c, m/c, clean[name].Unit)
	}
	fmt.Println("microbenchmark, MergeScan overhead over a clean scan at 2.5 updates per 100 tuples (Fig. 17/18):")
	for _, name := range []string{"pdt.mergescan_overhead_pct_int", "pdt.mergescan_overhead_pct_str", "vdt.mergescan_overhead_pct_int", "vdt.mergescan_overhead_pct_str"} {
		fmt.Printf("  %-34s %10.2f %%\n", name, layers[name].Value)
	}
	fmt.Println("PDT update cost at 100k entries (Fig. 16):")
	for _, name := range []string{"pdt.insert_us", "pdt.modify_us", "pdt.delete_us"} {
		fmt.Printf("  %-34s %10.3f us\n", name, layers[name].Value)
	}
	return 0
}
