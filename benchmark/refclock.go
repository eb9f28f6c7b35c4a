package main

import "time"

// The reference kernel is the benchmark's clock. On a shared box a neighbour
// slows whole stretches of a run by 10-30 %, every op class by about the same
// factor, so wall time alone cannot compare two commits. The kernel is a
// fixed piece of driver code — a Q6-shaped filter-and-sum over three 4 MB
// arrays, nothing of the store in it — timed between the stretches the
// benchmark times, never during one, and only while no goroutine of the store
// or the driver is running: what the store's own goroutines do to each other
// stays in the measurement. A time is divided by the kernel's slowdown around
// it (its time over refNominalMs), which turns wall milliseconds into
// milliseconds at the reference speed.
const (
	refElems = 1 << 19
	// refNominalMs only fixes the unit: with the kernel's cost on a quiet
	// development box, a reference millisecond there is about a wall
	// millisecond. Two commits are compared by ratio, which it cancels out of.
	refNominalMs = 1.8
)

var (
	refDates = make([]int64, refElems)
	refDisc  = make([]float64, refElems)
	refPrice = make([]float64, refElems)
)

func init() {
	x := uint64(88172645463325252)
	for i := range refDates {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refDates[i] = int64(x % 2557)
		refDisc[i] = float64(x>>20%11) / 100
		refPrice[i] = float64(x>>32%100000) / 100
	}
}

// refKernelMs runs the kernel once and returns its wall time in milliseconds.
func refKernelMs() float64 {
	t0 := time.Now()
	sum := 0.0
	for i, d := range refDates {
		if d >= 730 && d < 1095 {
			if x := refDisc[i]; x >= 0.05 && x <= 0.07 {
				sum += refPrice[i] * x
			}
		}
	}
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if sum < 0 { // never: prices and discounts are positive. Keeps the loop's result live.
		panic("reference kernel: negative sum")
	}
	return ms
}

// refClock samples the box's slowdown between timed stretches.
type refClock struct {
	last    float64
	samples []float64 // every sample taken, for the run's header
}

// sample is the box's slowdown now: the quicker of two kernel runs over the
// nominal cost.
func (r *refClock) sample() float64 {
	a, b := refKernelMs(), refKernelMs()
	if b < a {
		a = b
	}
	r.samples = append(r.samples, a/refNominalMs)
	return a / refNominalMs
}

// lap samples the slowdown and returns the mean of this sample and the one
// before it: the slowdown of the stretch that ran between the two calls.
func (r *refClock) lap() float64 {
	now := r.sample()
	mean := (r.last + now) / 2
	r.last = now
	return mean
}
