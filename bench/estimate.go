package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between order statistics; NaN when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// p10Fastest is the 10th percentile of a set of samples, low being fast.
func p10Fastest(samples []float64) float64 { return quantile(sortedCopy(samples), 0.10) }

// quietTrial is what one trial's fixed work costs when nobody disturbs it.
//
// Interference on a shared box only ever adds time, and here it arrives in
// bursts: a neighbour on the sibling hardware thread slows wide code by a
// third for milliseconds to seconds at a time, while quiet stretches of a few
// milliseconds keep occurring. A trial's slices all forward the same window
// of the pool, so forwarding costs the trial a quiet slice — one no burst
// touched — times the number of slices. The quiet slice is the
// 10th-percentile one, not the fastest: now and then a slice runs an eighth
// faster than all the others (the sibling thread idle for once), a few in a
// hundred on a calm day, and a lucky sample is no estimate. What differs from
// slice to slice is the control plane's work between the batch calls (a route
// update that splits a bucket, a residency cycle that moves more than the
// others); that is timed call by call and counted in full, as the trial's
// total. The run then reports the 10th-percentile trial.
//
// A cost the data path itself pays in fewer than nine slices out of ten falls
// outside the quiet slice; bench.trial_spread (the median whole trial against this
// estimate) is where it shows (README, "Noise").
func quietTrial(slices []float64, control float64) float64 {
	return float64(len(slices))*p10Fastest(slices) + control
}

// quietSum estimates work that is repeated whole a few times and has stages
// of its own — a set-up, a layer probe's pass over its calls: every repeat
// does the same work at the same stage, so each stage counts as its
// 10th-percentile visit and the work costs the sum over its stages.
func quietSum(repeats [][]float64) float64 {
	if len(repeats) == 0 {
		return math.NaN()
	}
	visits := make([]float64, len(repeats))
	sum := 0.0
	for j := range repeats[0] {
		for t := range repeats {
			visits[t] = repeats[t][j]
		}
		sort.Float64s(visits)
		sum += quantile(visits, 0.10)
	}
	return sum
}

func total(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// trialPercentiles summarizes one trial's latency samples (ns) as p50, p90
// and p99 in microseconds. It sorts samples in place.
func trialPercentiles(samples []float64) (p50, p90, p99 float64) {
	sort.Float64s(samples)
	return quantile(samples, 0.50) / 1e3, quantile(samples, 0.90) / 1e3, quantile(samples, 0.99) / 1e3
}
