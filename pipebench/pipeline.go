package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"isum/internal/advisor"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/index"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

// outcome is one pipeline iteration: SQL text in, recommended
// configuration and its improvement on the full workload out.
type outcome struct {
	// recommend (load → FillCosts → compress → tune) and pipeline
	// (recommend plus evaluation) are served times (see served);
	// pipelineWall is the plain wall time and steal the time the
	// hypervisor withheld over the pipeline.
	recommend, pipeline time.Duration
	pipelineWall, steal time.Duration
	pct                 float64
	digest              uint64

	// Per-layer figures the program reports through its public API.
	cost                               costCounters
	compressRounds                     int
	tuneCalls, tuneConfigs, tuneElided int64
	tuneRounds                         int

	// span is the iteration's root span (nil when untraced).
	span *telemetry.Span
}

// runPipeline runs one iteration on a freshly parsed workload and a fresh
// optimizer, so every iteration pays a cold what-if cache as a tuning
// session does. reg is nil for untraced iterations; when non-nil, the
// benchmark opens one span per layer call and the program reports into
// the same registry. A panic in the program is returned as an error.
func runPipeline(ctx context.Context, s spec, in *inputs, reg *telemetry.Registry) (out *outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	out = &outcome{}
	root := reg.Start("bench/iteration")
	defer root.End()
	out.span = root

	start := readStamp()
	sp := reg.Start("bench/workload")
	w, err := workload.New(in.cat, in.sqls)
	sp.End()
	if err != nil {
		return nil, err
	}

	// Optimizers on one registry share its counters, so the figures are
	// taken as differences from this optimizer's creation.
	o := cost.NewOptimizerWithTelemetry(in.cat, cost.DefaultParams(), reg)
	costBefore := readCost(o)
	sp = reg.Start("bench/cost")
	err = o.FillCostsCtx(ctx, w, 0)
	sp.End()
	if err != nil {
		return nil, err
	}

	copts := core.DefaultOptions()
	copts.ConsTemplates = s.cons
	copts.Telemetry = reg
	sp = reg.Start("bench/core")
	cw, comp, err := core.New(copts).CompressedWorkloadContext(ctx, w, s.k)
	sp.End()
	if err != nil {
		return nil, err
	}

	aopts := advisor.DefaultOptions()
	aopts.MaxIndexes = maxIndexes
	aopts.Telemetry = reg
	elidedBefore, _, _ := o.ElideStats()
	sp = reg.Start("bench/advisor-tune")
	tune, err := advisor.New(o, aopts).TuneContext(ctx, cw)
	sp.End()
	out.recommend = served(start, readStamp())
	if err != nil {
		return nil, err
	}
	elidedAfter, _, _ := o.ElideStats()

	sp = reg.Start("bench/advisor-evaluate")
	pct, _, _, err := advisor.EvaluateImprovementContext(ctx, o, w, tune.Config, 0)
	sp.End()
	done := readStamp()
	out.pipeline, out.pipelineWall = served(start, done), done.wall.Sub(start.wall)
	out.steal = done.steal - start.steal
	if err != nil {
		return nil, err
	}

	if err := checkOutputs(s, w, comp, tune, pct); err != nil {
		return nil, err
	}
	out.pct = pct
	out.digest = digest(comp, tune, pct)
	out.cost = readCost(o).sub(costBefore)
	out.compressRounds = comp.Rounds
	out.tuneCalls = tune.OptimizerCalls
	out.tuneConfigs = tune.ConfigsExplored
	out.tuneRounds = tune.Rounds
	out.tuneElided = elidedAfter - elidedBefore
	return out, nil
}

// costCounters are the what-if optimizer's figures.
type costCounters struct {
	busy                                      time.Duration
	calls, plans, cacheHits, cacheMisses      int64
	elideHits, boundPrunes, singleflightWaits int64
}

func readCost(o *cost.Optimizer) costCounters {
	c := costCounters{busy: o.CostTime(), calls: o.Calls(), plans: o.Plans()}
	c.cacheHits, c.cacheMisses = o.CacheStats()
	c.elideHits, c.boundPrunes, c.singleflightWaits = o.ElideStats()
	return c
}

func (a costCounters) sub(b costCounters) costCounters {
	return costCounters{
		busy:              a.busy - b.busy,
		calls:             a.calls - b.calls,
		plans:             a.plans - b.plans,
		cacheHits:         a.cacheHits - b.cacheHits,
		cacheMisses:       a.cacheMisses - b.cacheMisses,
		elideHits:         a.elideHits - b.elideHits,
		boundPrunes:       a.boundPrunes - b.boundPrunes,
		singleflightWaits: a.singleflightWaits - b.singleflightWaits,
	}
}

// checkOutputs is the per-iteration output check.
func checkOutputs(s spec, w *workload.Workload, comp *core.Result, tune *advisor.Result, pct float64) error {
	var errs []error
	if comp.Partial {
		errs = append(errs, errors.New("compression: partial result"))
	}
	if len(comp.Indices) != s.k {
		errs = append(errs, fmt.Errorf("compression: %d indices, want %d", len(comp.Indices), s.k))
	}
	seen := make(map[int]bool, len(comp.Indices))
	for _, i := range comp.Indices {
		if i < 0 || i >= w.Len() {
			errs = append(errs, fmt.Errorf("compression: index %d out of range [0,%d)", i, w.Len()))
		}
		if seen[i] {
			errs = append(errs, fmt.Errorf("compression: index %d selected twice", i))
		}
		seen[i] = true
	}
	if len(comp.Weights) != len(comp.Indices) {
		errs = append(errs, fmt.Errorf("compression: %d weights for %d indices", len(comp.Weights), len(comp.Indices)))
	}
	var sum float64
	for _, wt := range comp.Weights {
		if math.IsNaN(wt) || math.IsInf(wt, 0) || wt <= 0 {
			errs = append(errs, fmt.Errorf("compression: weight %v not finite and positive", wt))
		}
		sum += wt
	}
	if math.Abs(sum-1) > 1e-9 {
		errs = append(errs, fmt.Errorf("compression: weights sum to %.17g, want 1", sum))
	}

	if tune.Partial {
		errs = append(errs, errors.New("tuning: partial result"))
	}
	if n := tune.Config.Len(); n > maxIndexes {
		errs = append(errs, fmt.Errorf("tuning: %d indexes, want at most %d", n, maxIndexes))
	}
	for _, ix := range tune.Config.Indexes() {
		if err := ix.Validate(w.Catalog); err != nil {
			errs = append(errs, fmt.Errorf("tuning: %w", err))
		}
	}
	if tune.FinalCost > tune.InitialCost {
		errs = append(errs, fmt.Errorf("tuning: final cost %v above initial cost %v", tune.FinalCost, tune.InitialCost))
	}

	if math.IsNaN(pct) || math.IsInf(pct, 0) || pct < 0 || pct > 100 {
		errs = append(errs, fmt.Errorf("evaluation: improvement %v%% outside [0,100]", pct))
	}
	return errors.Join(errs...)
}

// digest hashes the selected positions, the weight bits, the sorted index
// IDs of the configuration and the bits of the improvement, so two
// iterations, runs or commits can be compared by one number.
func digest(comp *core.Result, tune *advisor.Result, pct float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, i := range comp.Indices {
		put(uint64(i))
	}
	for _, wt := range comp.Weights {
		put(math.Float64bits(wt))
	}
	ids := configIDs(tune.Config)
	for _, id := range ids {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	put(math.Float64bits(pct))
	return h.Sum64()
}

func configIDs(cfg *index.Configuration) []string {
	var ids []string
	for _, ix := range cfg.Indexes() {
		ids = append(ids, ix.ID())
	}
	sort.Strings(ids)
	return ids
}
