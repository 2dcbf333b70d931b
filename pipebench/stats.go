package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailPercentiles are the percentiles a timing reports, highest first; a
// run reports the highest one with at least ten samples beyond it.
var tailPercentiles = []int{99, 95, 90, 75}

// timingDetail describes a timing series: its sample count and the highest
// percentile that has at least ten samples beyond it, where the run holds
// that many.
func timingDetail(v []float64) string {
	for _, p := range tailPercentiles {
		if len(v)*(100-p) >= 10*100 {
			return fmt.Sprintf("median of %d; p%d %.6f", len(v), p, quantile(v, float64(p)/100))
		}
	}
	return fmt.Sprintf("median of %d; no percentile has 10 samples beyond it", len(v))
}
