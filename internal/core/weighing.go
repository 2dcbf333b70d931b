package core

import (
	"isum/internal/features"
	"isum/internal/workload"
)

// weigh assigns weights to the selected queries per the configured strategy
// (Section 7) and returns them parallel to res.Indices.
func (c *Compressor) weigh(w *workload.Workload, states []*QueryState, res *Result) []float64 {
	k := len(res.Indices)
	if k == 0 {
		return nil
	}
	switch c.opts.Weighing {
	case WeighNone:
		out := make([]float64, k)
		for i := range out {
			out[i] = 1.0 / float64(k)
		}
		return out
	case WeighSelectionBenefit:
		return normalizeWeights(res.SelectionBenefits)
	default:
		return c.recalibrate(w, states, res, c.opts.Weighing == WeighTemplateRecalibrated)
	}
}

// recalibrate implements Algorithm 5 (with Algorithm 4's template-based
// utility pooling when useTemplates is set): the selected queries' benefits
// are recomputed greedily against summary features built from the
// *unselected* remainder only, so selection-order bias disappears.
//
// Bookkeeping is index-addressed: W_u membership by state position,
// utility and benefit by selection position. Each round's W_u summary is
// scattered into one reused dense vector and compacted once to a
// SparseVec; scattering adds per ID in the order SparseVec.AddScaled
// merges would, so the weights do not depend on the summary's form.
func (c *Compressor) recalibrate(w *workload.Workload, states []*QueryState, res *Result, useTemplates bool) []float64 {
	k := len(res.Indices)
	// outWu marks the states left out of the remainder W_u: the selected
	// queries and, under template pooling, their templates' other queries.
	outWu := make([]bool, len(states))
	for _, idx := range res.Indices {
		outWu[idx] = true
	}

	// Recalibrated utility per selected query.
	utility := make([]float64, k)
	if useTemplates {
		// Algorithm 4: pool utilities per template.
		freq := map[string]int{}
		for _, idx := range res.Indices {
			freq[states[idx].Query.TemplateID]++
		}
		totalU := map[string]float64{}
		for i, s := range states {
			tid := s.Query.TemplateID
			if freq[tid] > 0 {
				totalU[tid] += s.OrigUtility
				outWu[i] = true // same template: represented already
			}
		}
		for p, idx := range res.Indices {
			tid := states[idx].Query.TemplateID
			utility[p] = totalU[tid] / float64(freq[tid])
		}
	} else {
		for p, idx := range res.Indices {
			utility[p] = states[idx].OrigUtility
		}
	}

	// Fresh working copies of the unselected remainder (W_u).
	type uState struct {
		vec  features.SparseVec
		util float64
	}
	wu := make([]uState, 0, len(states)-k)
	for i, s := range states {
		if !outWu[i] {
			wu = append(wu, uState{vec: s.OrigVec.Clone(), util: s.OrigUtility})
		}
	}

	remaining := make([]int, k) // selection positions not yet recalibrated
	for p := range remaining {
		remaining[p] = p
	}
	benefit := make([]float64, k)
	total := 0.0
	var dense features.DenseVec
	var summary features.SparseVec
	for len(remaining) > 0 {
		// Summary features over the current W_u.
		dense.Reset()
		for _, u := range wu {
			dense.AddScaled(u.vec, u.util)
		}
		summary = dense.ToSparse(summary)
		bestPos, bestB := -1, -1.0
		for pos, p := range remaining {
			b := utility[p] + states[res.Indices[p]].OrigVec.WeightedJaccard(summary)
			if b > bestB+1e-9 { // epsilon tie-break, see selectGreedy
				bestB, bestPos = b, pos
			}
		}
		p := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		benefit[p] = bestB
		total += bestB
		// Update W_u with the chosen query: discount utilities and remove
		// covered features, as during selection.
		chosenVec := states[res.Indices[p]].OrigVec
		for i := range wu {
			u := &wu[i]
			sim := chosenVec.WeightedJaccard(u.vec)
			u.util -= u.util * sim
			u.vec.ZeroShared(chosenVec)
		}
	}

	out := make([]float64, k)
	for p := range out {
		if total > 0 {
			out[p] = benefit[p] / total
		} else {
			out[p] = 1.0 / float64(k)
		}
	}
	return out
}

// normalizeWeights scales weights to sum to 1, defaulting to uniform when
// the input is degenerate.
func normalizeWeights(in []float64) []float64 {
	out := make([]float64, len(in))
	var total float64
	for _, v := range in {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		for i := range out {
			out[i] = 1.0 / float64(len(in))
		}
		return out
	}
	for i, v := range in {
		if v < 0 {
			v = 0
		}
		out[i] = v / total
	}
	return out
}
