package core

import (
	"context"
	"sync"
	"sync/atomic"

	"isum/internal/features"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// progressStride is how many per-query units a worker sweep completes
// between progress emissions — coarse enough that emission cost is
// invisible next to feature extraction, fine enough for a live rate.
const progressStride = 1024

// QueryState is the mutable per-query state of a greedy run: the current
// (possibly updated) feature vector and utility, plus the originals for
// resets and weighing.
type QueryState struct {
	// Index is the query's position in the input workload.
	Index int
	// Query is the underlying workload query.
	Query *workload.Query

	// Vec is the current feature vector; mutated by update strategies.
	Vec features.SparseVec
	// Utility is the current (discounted) normalised utility U(q).
	Utility float64

	// OrigVec and OrigUtility are the values before any updates.
	OrigVec     features.SparseVec
	OrigUtility float64

	// Selected marks membership in the compressed workload.
	Selected bool

	// Interner is the workload-scoped feature dictionary shared by every
	// state built in the same BuildStates call; it maps the IDs in
	// Vec/OrigVec back to "table.column" keys.
	Interner *features.Interner
}

// Similarity returns the weighted-Jaccard similarity between two query
// states' current features.
//
//lint:hotpath
func (s *QueryState) Similarity(t *QueryState) float64 {
	return s.Vec.WeightedJaccard(t.Vec)
}

// delta computes Δ(q) under the utility mode.
func delta(q *workload.Query, mode UtilityMode) float64 {
	switch mode {
	case UtilityCostSelectivity:
		sel := 1.0
		if q.Info != nil {
			sel = q.Info.AvgFilterJoinSelectivity()
		}
		return (1 - sel) * q.Cost
	default:
		return q.Cost
	}
}

// BuildStates computes the initial per-query states for a workload:
// feature vectors via the configured extractor and normalised utilities
// U(q) = Δ(q)/ΣΔ (Definition 2). Feature extraction and Δ computation fan
// out across opts.Parallelism workers; ΣΔ is reduced serially in query
// order, so utilities are bit-identical at any parallelism.
func BuildStates(w *workload.Workload, opts Options) []*QueryState {
	states, err := BuildStatesContext(context.Background(), w, opts)
	if err != nil {
		panic(err)
	}
	return states
}

// BuildStatesContext is BuildStates with cancellation: a cancelled ctx
// aborts the feature-extraction sweep and returns the context's error
// (states built so far are discarded — partially built states are not
// meaningful), and a contained worker panic surfaces as a *PanicError.
func BuildStatesContext(ctx context.Context, w *workload.Workload, opts Options) ([]*QueryState, error) {
	states, _, err := buildStates(ctx, w, opts, nil)
	return states, err
}

// buildStates builds one selection state per template group and returns
// them with repIdx, which maps each state's position to its
// representative's workload position (the group's first instance). A nil
// groups means one group per query: the per-query universe, with repIdx
// the identity. Compression with Options.ConsTemplates passes
// w.TemplateGroups() (template hash-consing, DESIGN.md §12).
//
// Instances of one template differ only in literal bindings, so the
// representative's feature extraction stands in for the group. A group
// state's utility is the sum of its instances' normalised utilities
// U(q) = Δ(q)/ΣΔ — Algorithm 4's template pooling applied before
// selection — so a selected template carries the combined weight of every
// query it represents; a singleton group's 0 + Δ/ΣΔ is bitwise Δ/ΣΔ. ΣΔ
// ranges over all queries and is reduced serially in query order, so
// utilities are bit-identical at any parallelism.
//
// Extraction produces map-shaped vectors; their keys are interned into
// the workload dictionary (opts.Interner if set, else a fresh one) in a
// single serial batch, and the vectors are converted to sorted SparseVec
// form in a second parallel sweep. Batch interning is what makes IDs —
// and so every downstream merge-join — reproducible across runs.
func buildStates(ctx context.Context, w *workload.Workload, opts Options, groups []workload.TemplateGroup) ([]*QueryState, []int, error) {
	sp := opts.Telemetry.Start("core/build-states")
	defer sp.End()
	sp.SetAttr("n", w.Len())
	if groups != nil {
		sp.SetAttr("templates", len(groups))
		workload.RecordConsed(len(groups), w.Len()-len(groups))
	} else {
		groups = make([]workload.TemplateGroup, w.Len())
		for i := range groups {
			groups[i].Indices = []int{i}
		}
	}

	workers := parallel.Workers(opts.Parallelism)
	deltas, err := parallel.Map(ctx, workers, w.Len(), func(i int) float64 {
		return delta(w.Queries[i], opts.Utility)
	})
	if err != nil {
		return nil, nil, err
	}
	var totalDelta float64
	for _, d := range deltas {
		totalDelta += d
	}

	ex := opts.extractor(w.Catalog)
	in := opts.Interner
	if in == nil {
		in = features.NewInterner()
	}
	vecs := make([]features.Vector, len(groups))
	var built atomic.Int64 // progress stride counter; workers emit, so Progress must be concurrency-safe
	err = parallel.ForEach(ctx, workers, len(groups), func(g int) {
		vecs[g] = ex.Features(w.Queries[groups[g].Indices[0]])
		if opts.Progress != nil {
			if d := built.Add(1); d%progressStride == 0 {
				opts.Progress(telemetry.ProgressEvent{
					Phase: "core/build-states", Done: int(d), Total: len(groups),
				})
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	opts.Progress.Emit(telemetry.ProgressEvent{
		Phase: "core/build-states", Done: len(groups), Total: len(groups),
	})
	in.AddVectors(vecs)
	sp.SetAttr("features", in.Len())

	states := make([]*QueryState, len(groups))
	repIdx := make([]int, len(groups))
	err = parallel.ForEach(ctx, workers, len(groups), func(g int) {
		rep := groups[g].Indices[0]
		repIdx[g] = rep
		sv := in.FromMap(vecs[g])
		states[g] = &QueryState{
			Index:    g,
			Query:    w.Queries[rep],
			Vec:      sv.Clone(),
			OrigVec:  sv,
			Interner: in,
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for g, grp := range groups {
		var u float64
		if totalDelta > 0 {
			for _, i := range grp.Indices {
				u += deltas[i] / totalDelta
			}
		}
		states[g].Utility = u
		states[g].OrigUtility = u
	}
	return states, repIdx, nil
}

// applyUpdate updates an unselected query's state given a newly selected
// query (Section 4.3): the utility always shrinks by the influence
// F_qs(q) = S(qs,q)·U(q); the features change per the strategy.
//
//lint:hotpath
func applyUpdate(sel, q *QueryState, strategy UpdateStrategy) {
	if strategy == UpdateNone {
		return
	}
	sim := sel.Similarity(q)
	q.Utility -= q.Utility * sim
	if q.Utility < 0 {
		q.Utility = 0
	}
	switch strategy {
	case UpdateWeightSubtract:
		// Reduce q's feature weights by the selected query's weights,
		// scaled by similarity (option 1 in Section 4.3). The fused
		// kernel subtracts sel's weights scaled by sim in place — no
		// Clone().Scale(sim) temporary.
		q.Vec.SubClampedScaled(sel.Vec, sim)
	case UpdateFeatureRemove:
		// Zero the columns covered by the selected query (option 2).
		q.Vec.ZeroShared(sel.Vec)
	}
}

// updateResult is what one applyUpdateWithDelta call reports back to the
// greedy loop: the query's summary-contribution delta (when tracked and
// non-empty) and whether the update exhausted the query's features (so
// the loop can maintain its live-vector count without rescanning).
type updateResult struct {
	// util and vec are the change to the query's contribution
	// (Utility·Vec) to the workload summary; vec owns pooled storage and
	// must be Released after folding. Only meaningful when hasDelta.
	util     float64
	vec      features.SparseVec
	hasDelta bool
	// emptied is set when the update took the vector from live
	// (some weight > 0) to exhausted.
	emptied bool
}

// sharedScratch pools the pre-update weight snapshots taken by
// applyUpdateWithDelta.
var sharedScratch = sync.Pool{New: func() any { return new([]float64) }}

// applyUpdateWithDelta runs applyUpdate and, when track is set, computes
// the contribution delta with the merge-join kernels: the only entries an
// update can change are the IDs of sel.Vec, so it snapshots q's weights
// at those IDs, applies the update, and diffs. Safe to call concurrently
// for distinct q: it reads sel and mutates only q.
//
//lint:hotpath
func applyUpdateWithDelta(sel, q *QueryState, strategy UpdateStrategy, track bool) updateResult {
	if strategy == UpdateNone {
		return updateResult{}
	}
	wasLive := !q.Vec.AllZero()
	if !track {
		applyUpdate(sel, q, strategy)
		return updateResult{emptied: wasLive && q.Vec.AllZero()}
	}
	oldUtil := q.Utility
	buf := sharedScratch.Get().(*[]float64)
	shared := q.Vec.SharedWeights(sel.Vec, (*buf)[:0])
	applyUpdate(sel, q, strategy)
	newUtil := q.Utility
	d := features.UpdateDelta(q.Vec, sel.Vec, shared, oldUtil, newUtil)
	*buf = shared[:0]
	sharedScratch.Put(buf)

	res := updateResult{emptied: wasLive && q.Vec.AllZero()}
	if newUtil-oldUtil == 0 && d.Len() == 0 {
		d.Release()
		return res
	}
	res.util = newUtil - oldUtil
	res.vec = d
	res.hasDelta = true
	return res
}

// resetIfAllZero restores original features for unselected queries when
// every remaining query's features are exhausted (Algorithm 2, line 12).
// live is the greedy loop's maintained count of unselected states with
// non-exhausted vectors, so the common case is a counter check instead
// of an O(n) scan. Returns whether the reset revived any state and the
// new live count: a reset that revives nothing would only repeat, so it
// reports none and the loop ends.
func resetIfAllZero(states []*QueryState, live int) (bool, int) {
	if live > 0 {
		return false, live
	}
	n := 0
	for _, s := range states {
		if s.Selected {
			continue
		}
		s.Vec.Release()
		s.Vec = s.OrigVec.Clone()
		if !s.Vec.AllZero() {
			n++
		}
	}
	return n > 0, n
}

// countLive returns the number of unselected states whose vectors still
// carry weight — the initial value for the greedy loop's live counter.
func countLive(states []*QueryState) int {
	n := 0
	for _, s := range states {
		if !s.Selected && !s.Vec.AllZero() {
			n++
		}
	}
	return n
}
