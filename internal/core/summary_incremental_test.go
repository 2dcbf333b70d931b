package core

import (
	"math"
	"testing"
)

// TestIncrementalSummaryMatchesRebuild drives greedy rounds by hand,
// maintaining the summary incrementally (RemoveSelected + ApplyDelta, the
// greedy loop's only path) while also rebuilding it from scratch each round, and
// asserts the two agree. Agreement is within float tolerance, not
// bit-exact: subtracting a contribution is not the bitwise inverse of
// never having added it, which is exactly the noise the selection loop's
// epsilon tie-break absorbs.
func TestIncrementalSummaryMatchesRebuild(t *testing.T) {
	for name, opts := range map[string]Options{
		"feature-remove":  DefaultOptions(),
		"weight-subtract": withUpdate(DefaultOptions(), UpdateWeightSubtract),
		"utility-only":    withUpdate(DefaultOptions(), UpdateUtilityOnly),
		"isum-s":          ISUMSOptions(),
	} {
		t.Run(name, func(t *testing.T) {
			w := testWorkload(t)
			states := BuildStates(w, opts)
			inc := BuildSummary(states)

			for round := 0; round < 8; round++ {
				rebuilt := BuildSummary(states)
				if d := math.Abs(rebuilt.TotalUtility - inc.TotalUtility); d > 1e-9 {
					t.Fatalf("round %d: total utility drifted by %g (inc %v, rebuilt %v)",
						round, d, inc.TotalUtility, rebuilt.TotalUtility)
				}
				incV, rebuiltV := inc.Vec(), rebuilt.Vec()
				rebuiltV.Each(func(k uint32, want float64) {
					got, _ := incV.Get(k)
					if d := math.Abs(got - want); d > 1e-9 {
						t.Fatalf("round %d: V[%d] drifted by %g (inc %v, rebuilt %v)",
							round, k, d, got, want)
					}
				})
				// Residue entries the incremental summary keeps at ~0 must
				// actually be ~0.
				incV.Each(func(k uint32, got float64) {
					if _, ok := rebuiltV.Get(k); !ok && math.Abs(got) > 1e-9 {
						t.Fatalf("round %d: incremental residue V[%d] = %v", round, k, got)
					}
				})

				// Select the benefit argmax, as selectGreedy would.
				best := -1
				bestB := -1.0
				for i, s := range states {
					if s.Selected || s.Vec.AllZero() {
						continue
					}
					if b := BenefitSummary(s, rebuilt); b > bestB+1e-9 {
						bestB, best = b, i
					}
				}
				if best < 0 {
					break
				}
				sel := states[best]
				sel.Selected = true
				inc.RemoveSelected(sel)
				for _, s := range states {
					if s.Selected {
						continue
					}
					if r := applyUpdateWithDelta(sel, s, opts.Update, true); r.hasDelta {
						inc.ApplyDelta(r.util, r.vec)
						r.vec.Release()
					}
				}
				inc.Refresh()
			}
		})
	}
}

func withUpdate(o Options, u UpdateStrategy) Options {
	o.Update = u
	return o
}
