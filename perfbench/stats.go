package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rankOf returns the 1-based nearest rank of percentile p among n
// sorted samples.
func rankOf(p float64, n int) int {
	// The epsilon absorbs binary rounding: 99.9/100·10000 must be rank
	// 9990, not 9991.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond of n samples strictly above its rank. With fewer than
// 2·minBeyond samples no percentile qualifies and the median is used.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// rateBlocks is how many contiguous blocks of ops ops_per_s takes the
// median over.
const rateBlocks = 10

// blockRate splits walls (seconds per op, in run order) into up to
// rateBlocks contiguous blocks of ops and returns the median of the
// blocks' op rates. A burst of host contention inside the window moves it
// only if the burst spans most blocks.
func blockRate(walls []float64) float64 {
	n := len(walls)
	blocks := rateBlocks
	if blocks > n {
		blocks = n
	}
	rates := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		var sum float64
		for _, w := range walls[lo:hi] {
			sum += w
		}
		if sum > 0 {
			rates = append(rates, float64(hi-lo)/sum)
		}
	}
	return median(rates)
}

// median is the midpoint median (mean of the two middle values for an
// even count), used for set-up repetitions and cross-run summaries.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// millis and micros convert seconds to the reported units.
func millis(s float64) float64 { return s * 1e3 }
func micros(s float64) float64 { return s * 1e6 }

// megabytes converts a byte count to MB (10^6 bytes).
func megabytes(b uint64) float64 { return float64(b) / 1e6 }

// perOp divides a total by an op count (0 for no ops).
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// histQuantile interpolates quantile q (0..1) from cumulative
// exponential buckets: les[i] is bucket i's upper bound and cum[i] the
// count of observations <= les[i]. Linear interpolation inside the
// covering bucket keeps the estimate continuous in the counts instead of
// snapping to a bucket bound.
func histQuantile(les []float64, cum []int64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	rank := q * float64(total)
	var prevLE float64
	var prevCum int64
	for i, c := range cum {
		if float64(c) >= rank && c > prevCum {
			frac := (rank - float64(prevCum)) / float64(c-prevCum)
			return prevLE + frac*(les[i]-prevLE)
		}
		prevLE, prevCum = les[i], c
	}
	return les[len(les)-1]
}
