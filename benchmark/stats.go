package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by nearest rank on a sorted
// copy. It is the one definition of "p50" and "pNN" the driver uses.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailPercentile picks the highest of p90/p95/p99/p99.9 that still has at
// least ten samples beyond it (choosing-metrics §1), and returns it with its
// label; with fewer than 100 samples it falls back to the maximum.
func tailPercentile(xs []float64) (label string, v float64) {
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(len(xs))*(1-t.q) >= 10 {
			return t.label, percentile(xs, t.q)
		}
	}
	return "max", percentile(xs, 1)
}

// quartiles returns Q1, median, Q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), which is what the pipeline's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// samples collects, per metric, one statistic per round at the reference
// speed (round, what the end-to-end estimate is the median of) and, per op
// class, every individual wall latency (all, what the per-layer tails and
// medians are drawn from).
type samples struct {
	round map[string][]float64
	all   map[string][]float64
}

func newSamples() *samples {
	return &samples{round: map[string][]float64{}, all: map[string][]float64{}}
}

// add files one round's statistic for a metric at the reference speed: a
// time is divided by the slowdown measured around it, a rate multiplied.
func (s *samples) add(name string, wall, slowdown float64, rate bool) {
	v := wall / slowdown
	if rate {
		v = wall * slowdown
	}
	s.round[name] = append(s.round[name], v)
}
