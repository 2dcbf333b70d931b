package features

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"isum/internal/telemetry"
)

// SparseVec is the hot-path feature-vector representation: parallel
// ids/weights slices sorted ascending by interned feature ID. Every
// kernel below is a merge-join over the sorted IDs, so iteration order —
// and therefore every floating-point sum — is canonical by construction:
// no per-call DetSum sort, no map-iteration randomness. The map-shaped
// Vector stays as the extraction format and as the test-only reference
// oracle; the two accumulation regimes are documented in vector.go and
// DESIGN.md §11.
//
// Weights are non-negative by construction (extraction normalises rule
// and stats weights into [0,1]); SubClamped/SubClampedScaled rely on
// that to shrink in place.
//
// The zero value is an empty vector and is valid for every operation.
// Two SparseVecs must not share backing storage if either is mutated;
// use Clone when a mutable copy is needed.
type SparseVec struct {
	ids []uint32
	ws  []float64
}

// vecMetrics are the package's registered telemetry handles; nil when
// telemetry is disabled (the default), so kernels pay one atomic pointer
// load.
type vecMetrics struct {
	mergeOps   *telemetry.Counter // features/vec/merge_ops: merge-join kernel invocations
	internSize *telemetry.Gauge   // features/intern/size: interned dictionary entries
}

var vtel atomic.Pointer[vecMetrics]

// SetTelemetry registers the package's metrics on reg; nil disables
// them. Call once at startup, alongside parallel.SetTelemetry.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		vtel.Store(nil)
		return
	}
	vtel.Store(&vecMetrics{
		mergeOps:   reg.Counter("features/vec/merge_ops"),
		internSize: reg.Gauge("features/intern/size"),
	})
}

func mergeOp() {
	if m := vtel.Load(); m != nil {
		m.mergeOps.Inc()
	}
}

// vecBuf is the pooled scratch storage behind the grow-capable kernels.
// Kernels that may grow their receiver (AddScaled, UpdateDelta) merge
// into a pooled buffer and swap storage, returning the old arrays to the
// pool; shrink-only kernels (SubClamped, SubClampedScaled, ZeroShared)
// compact in place and never touch the pool.
type vecBuf struct {
	ids []uint32
	ws  []float64
}

// vecBufs is package-level (never passed by value) per the concurrency
// analyzer's sync.Pool rule.
var vecBufs = sync.Pool{New: func() any { return &vecBuf{} }}

// FromMap converts a map vector whose keys are all interned. Entries are
// sorted ascending by ID; a non-interned key is a programming error
// (intern the workload's vectors first) and panics.
func (in *Interner) FromMap(v Vector) SparseVec {
	ids := make([]uint32, 0, len(v))
	ws := make([]float64, 0, len(v))
	for k, w := range v {
		id, ok := in.ids[k]
		if !ok {
			panic("features: FromMap key not interned: " + k)
		}
		ids = append(ids, id)
		ws = append(ws, w)
	}
	sv := SparseVec{ids: ids, ws: ws}
	sv.sortByID()
	return sv
}

// sortByID canonicalises the vector: entries ascending by interned ID.
func (v *SparseVec) sortByID() { sort.Sort((*vecSorter)(v)) }

type vecSorter SparseVec

func (s *vecSorter) Len() int           { return len(s.ids) }
func (s *vecSorter) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *vecSorter) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// ToMap expands the vector back to map form under the interner that
// issued its IDs. Test and display helper, not a hot path.
func (v SparseVec) ToMap(in *Interner) Vector {
	m := make(Vector, len(v.ids))
	for i, id := range v.ids {
		m[in.Key(id)] = v.ws[i]
	}
	return m
}

// Len returns the number of stored entries (including explicit zeros).
func (v SparseVec) Len() int { return len(v.ids) }

// Get returns the weight stored for id and whether an entry exists.
func (v SparseVec) Get(id uint32) (float64, bool) {
	i := sort.Search(len(v.ids), func(i int) bool { return v.ids[i] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return v.ws[i], true
	}
	return 0, false
}

// Each calls fn for every entry in ascending-ID (canonical) order.
func (v SparseVec) Each(fn func(id uint32, w float64)) {
	for i := range v.ids {
		fn(v.ids[i], v.ws[i])
	}
}

// Clone returns an independent copy.
func (v SparseVec) Clone() SparseVec {
	if len(v.ids) == 0 {
		return SparseVec{}
	}
	ids := make([]uint32, len(v.ids))
	ws := make([]float64, len(v.ws))
	copy(ids, v.ids)
	copy(ws, v.ws)
	return SparseVec{ids: ids, ws: ws}
}

// AllZero reports whether the vector has no entry with positive weight.
func (v SparseVec) AllZero() bool {
	for _, w := range v.ws {
		if w > 0 {
			return false
		}
	}
	return true
}

// Sum returns the total weight, accumulated in ascending-ID order — the
// canonical order, so no DetSum-style sort is needed (vector.go
// documents the two regimes).
//
//lint:hotpath
func (v SparseVec) Sum() float64 {
	s := 0.0
	for _, w := range v.ws {
		s += w
	}
	return s
}

// Scale multiplies every weight by f in place.
func (v *SparseVec) Scale(f float64) {
	for i := range v.ws {
		v.ws[i] *= f
	}
}

// Release returns the vector's backing storage to the kernel scratch
// pool and empties the vector. Only call it on storage this vector owns
// exclusively (e.g. an UpdateDelta result after folding it in). It
// recycles a pooled holder rather than allocating one, so a
// produce/fold/Release cycle is allocation-free at steady state.
//
//lint:hotpath
func (v *SparseVec) Release() {
	if v.ids == nil && v.ws == nil {
		return
	}
	b := vecBufs.Get().(*vecBuf)
	b.ids, b.ws = v.ids[:0], v.ws[:0]
	vecBufs.Put(b)
	v.ids, v.ws = nil, nil
}

// AddScaled adds f times other into v (union merge). The merge writes
// into a pooled scratch buffer and swaps storage, so a warmed pool makes
// this allocation-free. Matches Vector.AddScaled entry-for-entry:
// existing slots accumulate v + w·f, new slots store w·f, zero results
// are kept.
//
//lint:hotpath
func (v *SparseVec) AddScaled(other SparseVec, f float64) {
	if len(other.ids) == 0 {
		return
	}
	mergeOp()
	b := vecBufs.Get().(*vecBuf)
	ids, ws := b.ids[:0], b.ws[:0]
	i, j := 0, 0
	for i < len(v.ids) && j < len(other.ids) {
		switch {
		case v.ids[i] == other.ids[j]:
			ids = append(ids, v.ids[i])
			ws = append(ws, v.ws[i]+other.ws[j]*f)
			i++
			j++
		case v.ids[i] < other.ids[j]:
			ids = append(ids, v.ids[i])
			ws = append(ws, v.ws[i])
			i++
		default:
			ids = append(ids, other.ids[j])
			ws = append(ws, other.ws[j]*f)
			j++
		}
	}
	ids = append(ids, v.ids[i:]...)
	ws = append(ws, v.ws[i:]...)
	for ; j < len(other.ids); j++ {
		ids = append(ids, other.ids[j])
		ws = append(ws, other.ws[j]*f)
	}
	b.ids, b.ws = v.ids, v.ws
	v.ids, v.ws = ids, ws
	vecBufs.Put(b)
}

// SubClamped subtracts other's weights from v's, dropping any entry
// that would become ≤ 0. Shrink-only: compacts in place, no allocation.
//
//lint:hotpath
func (v *SparseVec) SubClamped(other SparseVec) { v.SubClampedScaled(other, 1) }

// SubClampedScaled subtracts f times other's weights from v's, dropping
// any entry that would become ≤ 0 — the fused form of
// Clone().Scale(f) + SubClamped used by the weight-subtract update.
// Requires other's weights (and f) non-negative, which feature vectors
// are by construction; shrink-only, compacts in place.
//
//lint:hotpath
func (v *SparseVec) SubClampedScaled(other SparseVec, f float64) {
	if len(other.ids) == 0 || len(v.ids) == 0 {
		return
	}
	mergeOp()
	w := 0
	j := 0
	for i := 0; i < len(v.ids); i++ {
		id := v.ids[i]
		for j < len(other.ids) && other.ids[j] < id {
			j++
		}
		if j < len(other.ids) && other.ids[j] == id {
			if nw := v.ws[i] - other.ws[j]*f; nw > 0 {
				v.ids[w], v.ws[w] = id, nw
				w++
			}
			j++
		} else {
			v.ids[w], v.ws[w] = id, v.ws[i]
			w++
		}
	}
	v.ids, v.ws = v.ids[:w], v.ws[:w]
}

// ZeroShared removes every entry whose ID carries positive weight in
// other (the feature-remove update). Shrink-only, compacts in place.
//
//lint:hotpath
func (v *SparseVec) ZeroShared(other SparseVec) {
	if len(other.ids) == 0 || len(v.ids) == 0 {
		return
	}
	mergeOp()
	w := 0
	j := 0
	for i := 0; i < len(v.ids); i++ {
		id := v.ids[i]
		for j < len(other.ids) && other.ids[j] < id {
			j++
		}
		if j < len(other.ids) && other.ids[j] == id && other.ws[j] > 0 {
			continue
		}
		v.ids[w], v.ws[w] = id, v.ws[i]
		w++
	}
	v.ids, v.ws = v.ids[:w], v.ws[:w]
}

// WeightedJaccard computes the weighted Jaccard similarity of a and b
// (Definition 6) as a single allocation-free merge: min/max sums
// accumulate over the union in ascending-ID order. Entry-for-entry it
// matches the map reference (RefWeightedJaccard): IDs only in a
// contribute min(aw,0)/max(aw,0), IDs only in b contribute bw to the max
// sum, and either operand being empty short-circuits to 0.
//
//lint:hotpath
func (a SparseVec) WeightedJaccard(b SparseVec) float64 {
	if len(a.ids) == 0 || len(b.ids) == 0 {
		return 0
	}
	mergeOp()
	var minSum, maxSum float64
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			aw, bw := a.ws[i], b.ws[j]
			minSum += math.Min(aw, bw)
			maxSum += math.Max(aw, bw)
			i++
			j++
		case a.ids[i] < b.ids[j]:
			aw := a.ws[i]
			minSum += math.Min(aw, 0)
			maxSum += math.Max(aw, 0)
			i++
		default:
			maxSum += b.ws[j]
			j++
		}
	}
	for ; i < len(a.ids); i++ {
		aw := a.ws[i]
		minSum += math.Min(aw, 0)
		maxSum += math.Max(aw, 0)
	}
	for ; j < len(b.ids); j++ {
		maxSum += b.ws[j]
	}
	if maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}

// Jaccard computes the unweighted Jaccard similarity of the entry sets
// (presence counts, including explicit zero-weight entries), matching
// the map-based Jaccard.
//
//lint:hotpath
func (a SparseVec) Jaccard(b SparseVec) float64 {
	if len(a.ids) == 0 && len(b.ids) == 0 {
		return 0
	}
	mergeOp()
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(a.ids) && j < len(b.ids) {
		switch {
		case a.ids[i] == b.ids[j]:
			inter++
			union++
			i++
			j++
		case a.ids[i] < b.ids[j]:
			union++
			i++
		default:
			union++
			j++
		}
	}
	union += len(a.ids) - i
	union += len(b.ids) - j
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// SharedWeights appends to dst, parallel to mask's entries, the weight v
// holds at each of mask's IDs (0 when absent) — the pre-update snapshot
// the incremental summary delta needs. Pass a pooled dst[:0] to keep it
// allocation-free.
//
//lint:hotpath
func (v SparseVec) SharedWeights(mask SparseVec, dst []float64) []float64 {
	j := 0
	for i := 0; i < len(mask.ids); i++ {
		for j < len(v.ids) && v.ids[j] < mask.ids[i] {
			j++
		}
		if j < len(v.ids) && v.ids[j] == mask.ids[i] {
			dst = append(dst, v.ws[j])
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// UpdateDelta computes the summary delta for one query after an update:
// cur is the query's post-update vector, mask the selected query's
// vector (exactly the IDs an update can touch), oldShared the pre-update
// weights snapped by SharedWeights, and oldU/newU the utilities around
// the update. Per entry, masked IDs contribute newU·curW − oldU·oldW and
// unmasked IDs (utility-only change) contribute (newU−oldU)·curW — the
// same expressions the map implementation used — with exact zeros
// dropped. The result owns pooled storage; Release it after folding into
// the summary.
//
//lint:hotpath
func UpdateDelta(cur, mask SparseVec, oldShared []float64, oldU, newU float64) SparseVec {
	mergeOp()
	b := vecBufs.Get().(*vecBuf)
	ids, ws := b.ids[:0], b.ws[:0]
	utilChanged := newU != oldU
	i, j := 0, 0
	for i < len(cur.ids) || j < len(mask.ids) {
		switch {
		case j >= len(mask.ids) || (i < len(cur.ids) && cur.ids[i] < mask.ids[j]):
			if utilChanged {
				if dd := (newU - oldU) * cur.ws[i]; dd != 0 {
					ids = append(ids, cur.ids[i])
					ws = append(ws, dd)
				}
			}
			i++
		case i >= len(cur.ids) || mask.ids[j] < cur.ids[i]:
			if dd := -(oldU * oldShared[j]); dd != 0 {
				ids = append(ids, mask.ids[j])
				ws = append(ws, dd)
			}
			j++
		default:
			if dd := newU*cur.ws[i] - oldU*oldShared[j]; dd != 0 {
				ids = append(ids, cur.ids[i])
				ws = append(ws, dd)
			}
			i++
			j++
		}
	}
	b.ids, b.ws = nil, nil
	vecBufs.Put(b)
	return SparseVec{ids: ids, ws: ws}
}
