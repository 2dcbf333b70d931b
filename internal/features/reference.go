package features

import "math"

// This file is the map-based reference oracle for the SparseVec and
// DenseVec kernels: straightforward implementations over Vector that
// accumulate in ascending interned-ID order — the same canonical order
// the kernels use — so oracle and production agree bit-for-bit, not just
// within tolerance. It also keeps the merge-join summary kernel,
// mergeSummaryTerms, as the reference for the dense one. Tests (the
// fuzz oracle in this package, the pinned pipeline-equivalence tests in
// internal/core) are the only intended callers; none of this is on a
// production path.
//
// Note the deliberate difference from the legacy WeightedJaccard above:
// that one canonicalises by sorting the collected min/max values
// (DetSum), which produces a different ulp-level rounding than
// ascending-ID accumulation. The oracle exists precisely to pin the
// ascending-ID regime.

// RefWeightedJaccard is WeightedJaccard over map vectors with
// ascending-ID accumulation. Entry-for-entry it matches
// SparseVec.WeightedJaccard: keys only in a contribute min(aw,0) and
// max(aw,0), keys only in b contribute bw to the max sum, and either
// operand being empty yields 0.
func RefWeightedJaccard(a, b Vector, in *Interner) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var minSum, maxSum float64
	for id := 0; id < in.Len(); id++ {
		k := in.Key(uint32(id))
		aw, aok := a[k]
		bw, bok := b[k]
		switch {
		case aok && bok:
			minSum += math.Min(aw, bw)
			maxSum += math.Max(aw, bw)
		case aok:
			minSum += math.Min(aw, 0)
			maxSum += math.Max(aw, 0)
		case bok:
			maxSum += bw
		}
	}
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// RefSummarySimilarity is the map computation of S(q, V′) in the dense
// kernel's grouping (DenseVec.SummarySimilarity): the summary mass M is
// summed over v in ascending-ID order, the terms at q's IDs accumulate in
// ascending-ID order, and the summary entries q does not touch enter the
// max sum as scale·(M − Σ_{j∈q∩V} V_j). It matches the dense kernel
// bit-for-bit; RefStagedSummarySimilarity keeps the staged grouping.
func RefSummarySimilarity(q, v Vector, qUtil, totalUtil float64, in *Interner) float64 {
	if len(q) == 0 {
		return 0
	}
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return 0
	}
	scale := totalUtil / reduced
	mass := RefSum(v, in)
	var minSum, qPart, shared float64
	survivors := len(v)
	for id := 0; id < in.Len(); id++ {
		k := in.Key(uint32(id))
		aw, ok := q[k]
		if !ok {
			continue
		}
		if vw, ok := v[k]; ok {
			shared += vw
			if nw := vw - aw*qUtil; nw > 0 {
				vp := nw * scale
				minSum += math.Min(aw, vp)
				qPart += math.Max(aw, vp)
				continue
			}
			survivors--
		}
		minSum += math.Min(aw, 0)
		qPart += math.Max(aw, 0)
	}
	maxSum := qPart + scale*(mass-shared)
	if survivors == 0 || maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// RefStagedSummarySimilarity is the staged map computation of S(q, V′)
// (ExcludeFromSummary then WeightedJaccard) with every sum accumulated in
// ascending-ID order over the union: the grouping of the merge-join
// mergeSummaryTerms, which it matches bit-for-bit.
func RefStagedSummarySimilarity(q, v Vector, qUtil, totalUtil float64, in *Interner) float64 {
	out := v.Clone()
	out.SubClamped(q.Clone().Scale(qUtil))
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return 0
	}
	out.Scale(totalUtil / reduced)
	return RefWeightedJaccard(q, out, in)
}

// RefSum sums a map vector in ascending-ID order, matching
// SparseVec.Sum (unlike Vector.Sum, which canonicalises by value via
// DetSum).
func RefSum(v Vector, in *Interner) float64 {
	var s float64
	for id := 0; id < in.Len(); id++ {
		if w, ok := v[in.Key(uint32(id))]; ok {
			s += w
		}
	}
	return s
}

// mergeSummaryTerms is the merge-join form of S(q, V′) over a sparse
// summary v, returned as its min sum, max sum and surviving summary entry
// count (summaryRatio turns them into the similarity): one fused pass
// over the union of q's and v's IDs, O(|q| + |v|). Shared summary entries
// are clamped by nw = vw − qw·qUtil and, when they survive, rescaled by
// totalUtil/(totalUtil−qUtil); summary entries q does not touch survive
// unclamped and enter the max sum one by one in ascending-ID order. The
// similarity matches RefStagedSummarySimilarity bit-for-bit; it is the
// reference the dense kernel is checked against (same min sum and zero
// outcome, max sum within rounding).
func mergeSummaryTerms(q, v SparseVec, qUtil, totalUtil float64) (minSum, maxSum float64, survivors int) {
	if len(q.ids) == 0 {
		return 0, 0, 0
	}
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return 0, 0, 0
	}
	scale := totalUtil / reduced
	i, j := 0, 0
	for i < len(q.ids) || j < len(v.ids) {
		switch {
		case j >= len(v.ids) || (i < len(q.ids) && q.ids[i] < v.ids[j]):
			aw := q.ws[i]
			minSum += math.Min(aw, 0)
			maxSum += math.Max(aw, 0)
			i++
		case i >= len(q.ids) || v.ids[j] < q.ids[i]:
			survivors++
			maxSum += v.ws[j] * scale
			j++
		default:
			aw := q.ws[i]
			if nw := v.ws[j] - aw*qUtil; nw > 0 {
				vp := nw * scale
				survivors++
				minSum += math.Min(aw, vp)
				maxSum += math.Max(aw, vp)
			} else {
				minSum += math.Min(aw, 0)
				maxSum += math.Max(aw, 0)
			}
			i++
			j++
		}
	}
	return minSum, maxSum, survivors
}
