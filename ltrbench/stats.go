package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified. Empty input
// yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies collects per-operation durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// relDiff is |a-b| relative to the larger magnitude (absolute below 1).
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}
