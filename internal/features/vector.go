// Package features implements ISUM's query featurization (Section 4.2):
// indexable-column extraction, rule-based and statistics-based column
// weighting, normalisation, the weighted-Jaccard similarity measure, and
// workload summary features (Definition 11).
//
// Two vector representations coexist, with two determinism regimes
// (DESIGN.md §11):
//
//   - Vector (this file) is the map-shaped cold-path form: extraction
//     output, display, and the test-only reference oracle. Map iteration
//     order is randomized, so any float reduction over a Vector must
//     canonicalise first — DetSum sorts the collected values before
//     summing. Keep using DetSum for map-shaped sums.
//   - SparseVec (sparse.go) is the hot-path form: parallel ids/weights
//     slices sorted ascending by interned ID (intern.go). Merge-join
//     kernels iterate in ascending-ID order, which IS the canonical
//     order, so their sums are bit-identical by construction and need no
//     DetSum-style sort.
//
// DenseVec (dense.go) holds the greedy workload summary, indexed by
// interned ID: its scatters and gathers also accumulate every sum in
// ascending-ID order.
package features

import (
	"math"
	"sort"
)

// Vector is a sparse feature vector mapping feature keys ("table.column")
// to non-negative weights. Absent keys are zero.
type Vector map[string]float64

// Clone returns a deep copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	for k, w := range v {
		out[k] = w
	}
	return out
}

// AllZero reports whether the vector has no positive weight.
func (v Vector) AllZero() bool {
	for _, w := range v {
		if w > 0 {
			return false
		}
	}
	return true
}

// Sum returns the total weight. The accumulation order is canonicalised so
// the result is bit-identical across runs (map iteration order is not).
func (v Vector) Sum() float64 {
	vals := make([]float64, 0, len(v))
	for _, w := range v {
		vals = append(vals, w)
	}
	return DetSum(vals)
}

// DetSum adds vals in ascending value order (mutating vals). Floating-point
// addition is not associative, so summing in Go's randomised map iteration
// order perturbs the last ulp from run to run; sorting by value first makes
// every sum over the same multiset reproduce the same bits. Exported so
// every package that folds a float over a map can share the one canonical
// accumulation (isumlint's determinism analyzer points here).
func DetSum(vals []float64) float64 {
	sort.Float64s(vals)
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// Scale multiplies every weight by f in place and returns v.
func (v Vector) Scale(f float64) Vector {
	for k, w := range v {
		v[k] = w * f
	}
	return v
}

// AddScaled adds f·other into v in place and returns v.
func (v Vector) AddScaled(other Vector, f float64) Vector {
	for k, w := range other {
		v[k] += w * f
	}
	return v
}

// SubClamped subtracts other from v in place, clamping at zero, and
// returns v.
func (v Vector) SubClamped(other Vector) Vector {
	for k, w := range other {
		nw := v[k] - w
		if nw <= 0 {
			delete(v, k)
		} else {
			v[k] = nw
		}
	}
	return v
}

// ZeroShared removes from v every feature that has positive weight in
// other — the paper's "feature remove" update strategy (Section 4.3,
// second option), which empirically beats weight subtraction (Fig. 13).
func (v Vector) ZeroShared(other Vector) Vector {
	for k, w := range other {
		if w > 0 {
			delete(v, k)
		}
	}
	return v
}

// WeightedJaccard returns Σ_c min(a_c, b_c) / Σ_c max(a_c, b_c), the
// similarity measure of Section 4.2. It is 0 when either vector is empty
// and always lies in [0, 1]. Both sums accumulate in canonical order (see
// DetSum) so similarities are bit-identical across runs.
func WeightedJaccard(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	mins := make([]float64, 0, len(a))
	maxs := make([]float64, 0, len(a)+len(b))
	for k, aw := range a {
		bw := b[k]
		mins = append(mins, math.Min(aw, bw))
		maxs = append(maxs, math.Max(aw, bw))
	}
	for k, bw := range b {
		if _, ok := a[k]; !ok {
			maxs = append(maxs, bw)
		}
	}
	maxSum := DetSum(maxs)
	if maxSum == 0 {
		return 0
	}
	return DetSum(mins) / maxSum
}

// Jaccard returns the unweighted Jaccard similarity of the key sets
// (weights ignored), used by the Fig. 7 similarity-measure comparison.
func Jaccard(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
