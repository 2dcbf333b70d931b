package features

import (
	"math"
	"math/bits"
)

// DenseVec is a feature vector held densely, indexed by interned feature
// ID: the form of the greedy loop's workload summary V, which touches a
// large share of the dictionary while each query touches only a handful
// of IDs. A presence bitmap records which IDs hold an entry (explicit
// zeros included, exactly as SparseVec keeps them), so a DenseVec and the
// SparseVec built by the same AddScaled sequence hold the same entries
// with bitwise-equal weights.
//
// Scatter updates cost O(|vec|) instead of a merge over the whole
// summary, and SummarySimilarity gathers over the query's IDs only, using
// the summary mass cached by RefreshMass for everything the query does
// not touch (DESIGN.md §11). The zero value is an empty vector; it grows
// on demand.
type DenseVec struct {
	ws      []float64 // weight by ID; meaningful only where present
	present []uint64  // presence bitmap, one bit per ID
	n       int       // number of present entries
	mass    float64   // Σ present weights, ascending ID, as of RefreshMass
}

// Reset empties the vector, keeping its storage for reuse.
func (d *DenseVec) Reset() {
	clear(d.ws)
	clear(d.present)
	d.n, d.mass = 0, 0
}

// grow extends the vector to hold IDs below dim, keeping its entries;
// doubling bounds the copying while a summary is first built.
func (d *DenseVec) grow(dim int) {
	ws := make([]float64, max(dim, 2*len(d.ws)))
	copy(ws, d.ws)
	present := make([]uint64, (len(ws)+63)/64)
	copy(present, d.present)
	d.ws, d.present = ws, present
}

// AddScaled adds f times v into d by scatter: an ID's first touch stores
// w·f and later touches store d + w·f — per ID the same addition sequence
// SparseVec.AddScaled performs, so the weights are bit-identical to the
// merge-built vector's. The cached mass goes stale; call RefreshMass
// before the next SummarySimilarity.
//
//lint:hotpath
func (d *DenseVec) AddScaled(v SparseVec, f float64) {
	if len(v.ids) == 0 {
		return
	}
	if top := int(v.ids[len(v.ids)-1]) + 1; top > len(d.ws) {
		d.grow(top)
	}
	for i, id := range v.ids {
		word, bit := id>>6, uint64(1)<<(id&63)
		if d.present[word]&bit == 0 {
			d.present[word] |= bit
			d.n++
			d.ws[id] = v.ws[i] * f
		} else {
			d.ws[id] += v.ws[i] * f
		}
	}
}

// RefreshMass recomputes the cached mass M = Σ present weights in
// ascending-ID order: O(dim), once per greedy round.
func (d *DenseVec) RefreshMass() {
	var m float64
	for word, bitsSet := range d.present {
		for bitsSet != 0 {
			id := word<<6 + bits.TrailingZeros64(bitsSet)
			m += d.ws[id]
			bitsSet &= bitsSet - 1
		}
	}
	d.mass = m
}

// ToSparse returns d's entries in ascending-ID order as a SparseVec,
// reusing dst's storage (its entries are discarded).
func (d *DenseVec) ToSparse(dst SparseVec) SparseVec {
	ids, ws := dst.ids[:0], dst.ws[:0]
	for word, bitsSet := range d.present {
		for bitsSet != 0 {
			id := word<<6 + bits.TrailingZeros64(bitsSet)
			ids = append(ids, uint32(id))
			ws = append(ws, d.ws[id])
			bitsSet &= bitsSet - 1
		}
	}
	return SparseVec{ids: ids, ws: ws}
}

// SummarySimilarity computes S(q, V′) — WeightedJaccard between q and the
// summary d with q's own contribution excluded (Definition 11) — in
// O(|q|), by gathering over q's IDs. Per shared ID it does what the
// staged computation does: the summary entry is clamped by
// nw = vw − qw·qUtil and, when it survives, rescaled by
// scale = totalUtil/(totalUtil−qUtil); IDs only in q contribute
// min(qw,0)/max(qw,0). The summary entries q does not touch all survive
// and add scale·vw to the max sum; their total is taken from the cached
// mass as scale·(M − Σ_{j∈q∩V} V_j) instead of being summed entry by
// entry. That grouping is the only difference from the merge-join
// reference (mergeSummaryTerms in reference.go): the min sum, the
// survivor count and so the zero outcome are identical, the max sum may
// differ in its last ulps. A summary left with no surviving entry yields
// 0. The mass must be fresh (RefreshMass).
//
//lint:hotpath
func (d *DenseVec) SummarySimilarity(q SparseVec, qUtil, totalUtil float64) float64 {
	return summaryRatio(d.summaryTerms(q, qUtil, totalUtil))
}

// summaryTerms returns SummarySimilarity's min sum, max sum and surviving
// summary entry count.
//
//lint:hotpath
func (d *DenseVec) summaryTerms(q SparseVec, qUtil, totalUtil float64) (minSum, maxSum float64, survivors int) {
	if len(q.ids) == 0 {
		return 0, 0, 0
	}
	reduced := totalUtil - qUtil
	if reduced <= 0 {
		return 0, 0, 0
	}
	scale := totalUtil / reduced
	var qPart, shared float64
	survivors = d.n
	for i, id := range q.ids {
		aw := q.ws[i]
		if word := int(id >> 6); word < len(d.present) && d.present[word]&(1<<(id&63)) != 0 {
			vw := d.ws[id]
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
	return minSum, qPart + scale*(d.mass-shared), survivors
}

// summaryRatio turns summary-similarity terms into S(q, V′): 0 when no
// summary entry survives or the max sum vanishes.
func summaryRatio(minSum, maxSum float64, survivors int) float64 {
	if survivors == 0 || maxSum == 0 {
		return 0
	}
	return minSum / maxSum
}
