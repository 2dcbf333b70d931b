package core

import "isum/internal/features"

// Influence returns F_qi(qj) = S(qi, qj) · U(qj), the reduction in qj's
// utility when qi is selected for tuning (Definition 3).
//
//lint:hotpath
func Influence(qi, qj *QueryState) float64 {
	if qi == qj {
		return 0
	}
	return qi.Similarity(qj) * qj.Utility
}

// BenefitAllPairs returns the conditional benefit of qi against the current
// states (Definition 10, computed as in Algorithm 1): its discounted
// utility plus its influence over every unselected query.
//
//lint:hotpath
func BenefitAllPairs(qi *QueryState, states []*QueryState) float64 {
	b := qi.Utility
	for _, qj := range states {
		if qj == qi || qj.Selected {
			continue
		}
		b += Influence(qi, qj)
	}
	return b
}

// SummaryState carries the workload-level summary features V and total
// utility over the unselected queries, for the linear-time benefit. V is
// held densely by interned feature ID (features.DenseVec), so building
// and updating it are scatters over the touched IDs and a benefit
// evaluation gathers over the query's IDs only (DESIGN.md §11).
type SummaryState struct {
	v            features.DenseVec
	TotalUtility float64
}

// BuildSummary computes the summary features V (Definition 11) and total
// utility over the unselected queries, ready for benefit evaluation.
func BuildSummary(states []*QueryState) *SummaryState {
	ss := &SummaryState{}
	ss.rebuild(states)
	return ss
}

// rebuild recomputes the summary from scratch over the unselected
// queries, reusing the dense storage. Contributions are scattered in
// state order, so every entry has the bits a merge-built summary has.
func (ss *SummaryState) rebuild(states []*QueryState) {
	ss.v.Reset()
	ss.TotalUtility = 0
	for _, s := range states {
		if s.Selected {
			continue
		}
		ss.v.AddScaled(s.Vec, s.Utility)
		ss.TotalUtility += s.Utility
	}
	ss.v.RefreshMass()
}

// Vec returns the summary features V as a SparseVec copy, in
// ascending-ID order: the read accessor for display and tests.
func (ss *SummaryState) Vec() features.SparseVec { return ss.v.ToSparse(features.SparseVec{}) }

// RemoveSelected subtracts a just-selected query's contribution
// (Utility·Vec at selection time) from the summary — the first half of the
// incremental maintenance that replaces the per-round BuildSummary rebuild.
// Call Refresh once the round's updates are folded in.
//
//lint:hotpath
func (ss *SummaryState) RemoveSelected(q *QueryState) {
	ss.v.AddScaled(q.Vec, -q.Utility)
	ss.TotalUtility -= q.Utility
}

// ApplyDelta folds one unselected query's contribution delta (produced by
// the post-selection update sweep) into the summary. Deltas must be applied
// in query-index order for bit-identical summaries across runs. Call
// Refresh once the round's updates are folded in.
//
//lint:hotpath
func (ss *SummaryState) ApplyDelta(util float64, vec features.SparseVec) {
	ss.v.AddScaled(vec, 1)
	ss.TotalUtility += util
}

// Refresh recomputes the summary mass the benefit kernel reads, O(|V|):
// call it once per round, after RemoveSelected and the ApplyDelta calls
// and before the next benefit scan.
func (ss *SummaryState) Refresh() { ss.v.RefreshMass() }

// BenefitSummary returns qi's benefit against the summary (Algorithm 3):
// its utility plus S(qi, V′) where V′ excludes qi's own contribution,
// computed by the dense gather kernel in O(|qi|) (no temporary summary
// copy).
//
//lint:hotpath
func BenefitSummary(qi *QueryState, ss *SummaryState) float64 {
	return qi.Utility + ss.v.SummarySimilarity(qi.Vec, qi.Utility, ss.TotalUtility)
}

// InfluenceOnWorkload returns F_qs(W) = Σ_j S(qs,qj)·U(qj), the all-pairs
// influence of qs over the unselected queries — used to validate the
// summary approximation (Theorem 3 / Fig. 8a).
//
//lint:hotpath
func InfluenceOnWorkload(qs *QueryState, states []*QueryState) float64 {
	var f float64
	for _, qj := range states {
		if qj == qs || qj.Selected {
			continue
		}
		f += Influence(qs, qj)
	}
	return f
}

// InfluenceOnSummary returns F_qs(V) = S(qs, V′), the summary-feature
// estimate of the same quantity.
//
//lint:hotpath
func InfluenceOnSummary(qs *QueryState, ss *SummaryState) float64 {
	return ss.v.SummarySimilarity(qs.Vec, qs.Utility, ss.TotalUtility)
}
