package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quantileOf is the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty slice.
func quantileOf(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// sample is one timed observation: when it happened on the phase clock
// and how long it took, both in nanoseconds.
type sample struct {
	at, dur int64
}

// sliceMedian estimates a latency percentile as the median over
// sliceNs-long slices of the phase of each slice's own q-quantile.
// A whole-run tail percentile is set by the one or two worst stalls of
// the run and does not repeat between identical runs; the median of
// per-slice percentiles discards the slices a stall fell in and does.
// Slices with fewer than minPerSlice samples are left out (a quantile
// of a handful of samples is noise). It returns the estimate in
// nanoseconds and the number of slices used; NaN and 0 when no slice
// qualifies.
func sliceMedian(samples []sample, sliceNs int64, q float64, minPerSlice int) (float64, int) {
	if len(samples) == 0 || sliceNs <= 0 {
		return math.NaN(), 0
	}
	bySlice := map[int64][]float64{}
	for _, s := range samples {
		k := s.at / sliceNs
		bySlice[k] = append(bySlice[k], float64(s.dur))
	}
	var per []float64
	for _, durs := range bySlice {
		if len(durs) < minPerSlice {
			continue
		}
		per = append(per, quantileOf(durs, q))
	}
	if len(per) == 0 {
		return math.NaN(), 0
	}
	return median(per), len(per)
}

// spread is the distance between the first and third quartile as a
// share of the median, by the same method as Python's
// statistics.quantiles(values, n=4) (exclusive): the measure the
// benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(n-1) {
			pos = float64(n - 1)
		}
		lo := int(pos)
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := q(0.5)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs((q(0.75) - q(0.25)) / med)
}
