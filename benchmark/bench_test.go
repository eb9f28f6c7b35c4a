package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesDriver holds BENCHMARK.json and the driver's own
// declarations together: same workloads, same metrics, same units, same
// direction, same bounds.
func TestManifestMatchesDriver(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEndDecl) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the driver %d", len(m.EndToEnd), len(endToEndDecl))
	}
	for i, e := range m.EndToEnd {
		if d := endToEndDecl[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the driver %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayerDecl) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the driver %d", len(m.PerLayer), len(perLayerDecl))
	}
	for i, e := range m.PerLayer {
		if d := perLayerDecl[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the driver %+v", i, e, d)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts got holds exactly the declared names, each finite.
func checkMetrics(t *testing.T, kind string, got map[string]metric, want []decl) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range want {
		if seen[d.Name] {
			t.Errorf("%s metric %s is declared twice", kind, d.Name)
		}
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s metric name %q is malformed", kind, d.Name)
		}
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s metric %s was not reported", kind, d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s metric %s = %v is not finite", kind, d.Name, m.Value)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s metric %s reported in %q, declared in %q", kind, d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s metric %s was reported but is not declared", kind, name)
		}
	}
}

// TestSmoke runs every workload, traced, at a scale that finishes in a couple
// of seconds each: the oracle must agree with the store throughout, and every
// declared metric — end-to-end and per-layer — must come out, finite, once.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			cfg := defaultConfig()
			cfg.workload = sp.name
			cfg.seed = 42
			cfg.sf = 0.002
			cfg.seconds = 0.2
			cfg.trace = true
			cfg.setups, cfg.reps, cfg.writeRounds, cfg.tailTxns = 1, 1, 2, 40
			cfg.reads = readCounts{q6: 3, q1: 2, wide: 1, rng: 6, lookup: 12}
			cfg.probeScale = 0.05
			cfg.root = t.TempDir()
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d operations failed; first: %v", rep.failed, rep.attempted, rep.firstErr)
			}
			checkMetrics(t, "end-to-end", rep.endToEnd, endToEndDecl)
			checkMetrics(t, "per-layer", rep.perLayer, perLayerDecl)
			if info, err := os.Stat(rep.traceFile); err != nil || info.Size() == 0 {
				t.Errorf("trace file %s: %v", rep.traceFile, err)
			}
		})
	}
}

// TestReferenceSpeed pins the normalisation rule: a time measured while the
// box runs at 1.25x its reference cost is divided by 1.25, a rate multiplied.
func TestReferenceSpeed(t *testing.T) {
	s := newSamples()
	s.add("q6_ms_p50", 10, 1.25, false)
	s.add("q6_ms_p50", 8, 1.0, false)
	s.add("q6_ms_p50", 9, 1.0, false)
	s.add("wide_mrows_per_s", 4, 1.25, true)
	if got := s.round["q6_ms_p50"]; got[0] != 8 || got[1] != 8 || got[2] != 9 {
		t.Errorf("times at reference speed = %v, want [8 8 9]", got)
	}
	if got := median(s.round["q6_ms_p50"]); got != 8 {
		t.Errorf("estimate = %v, want the median round, 8", got)
	}
	if got := s.round["wide_mrows_per_s"][0]; got != 5 {
		t.Errorf("rate at reference speed = %v, want 5", got)
	}
}

// TestRefClockLap pins the lap rule: a stretch's slowdown is the mean of the
// samples on either side of it.
func TestRefClockLap(t *testing.T) {
	clk := &refClock{}
	clk.lap()
	before := clk.last
	if got := clk.lap(); got != (before+clk.last)/2 {
		t.Errorf("lap = %v, want the mean of %v and %v", got, before, clk.last)
	}
	if len(clk.samples) != 2 || clk.samples[1] != clk.last {
		t.Errorf("samples = %v, want both laps' samples kept, the last being %v", clk.samples, clk.last)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	// 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only one.
	if label, v := tailPercentile(xs); label != "p99" || v != 990 {
		t.Errorf("tail of 1000 = %s %v, want p99 990", label, v)
	}
	if label, _ := tailPercentile(xs[:200]); label != "p95" {
		t.Errorf("tail of 200 = %s, want p95", label)
	}
	if label, v := tailPercentile(xs[:50]); label != "max" || v != 50 {
		t.Errorf("tail of 50 = %s %v, want max 50", label, v)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs[:10])
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
