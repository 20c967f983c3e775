package main

import (
	"math"
	"sort"
	"time"
)

// now is the harness's only wall-clock read.
func now() time.Time {
	return time.Now() //detlint:allow det-time (the benchmark measures wall-clock time by definition)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between closest ranks. xs need not be sorted; it is not
// modified. An empty xs yields 0.
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

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
