package main

import (
	"math"
	"math/bits"
	"sort"
)

// histSubBits sets the histogram's resolution: every power-of-two range
// of latencies splits into 2^histSubBits equal buckets, so a reported
// percentile, interpolated within its bucket, is within 1/2^histSubBits
// ≈ 0.8 % of the true sample.
const histSubBits = 7

// histBuckets covers every uint64 nanosecond value.
const histBuckets = (64 - histSubBits + 1) << histSubBits

// hist is a fixed-memory, log-bucketed latency histogram in nanoseconds.
// Timed phases record millions of round trips; keeping samples in a
// slice would itself inflate the heap the benchmark reports.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func histIndex(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(v>>shift) - 1<<histSubBits
}

// histBucket returns the lower bound and width of bucket i.
func histBucket(i int) (lo, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	shift := i>>histSubBits - 1
	return float64(uint64(i&(1<<histSubBits-1)+1<<histSubBits) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// rank is the nearest rank of the q-quantile: the samples at or below it.
func (h *hist) rank(q float64) uint64 {
	return min(max(uint64(math.Ceil(q*float64(h.n))), 1), h.n)
}

// quantile returns the nearest-rank q-quantile in nanoseconds, placed
// within its bucket by its rank among the bucket's samples (0 when
// empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := h.rank(q)
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := histBucket(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	panic("hist: rank beyond the sample count")
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads this tool reports match the ones a Python check computes
// (with few values that method extrapolates beyond the extremes). A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
