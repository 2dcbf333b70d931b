package main

import (
	"runtime/metrics"
	"strings"
	"time"

	"isum/internal/telemetry"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	name, unit string
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer),
// each the median over the run's traced iterations. The end-to-end
// metrics of an untraced run are listed in reportEndToEnd. Units "count" mark
// the counts whose repeatability the run reports.
var perLayer = []metricDef{
	{"workload.load_s", "s"},
	{"cost.fill_s", "s"},
	{"cost.busy_s", "s"},
	{"cost.whatif_calls", "count"},
	{"cost.plans", "count"},
	{"cost.cache_hit_ratio", "ratio"},
	{"cost.elide_hits", "count"},
	{"cost.bound_prunes", "count"},
	{"cost.singleflight_waits", "count"},
	{"core.compress_s", "s"},
	{"core.rounds", "count"},
	{"core.argmax_s", "s"},
	{"core.update_s", "s"},
	{"core.weigh_s", "s"},
	{"features.merge_ops", "count"},
	{"advisor.tune_s", "s"},
	{"advisor.whatif_calls", "count"},
	{"advisor.configs_explored", "count"},
	{"advisor.rounds", "count"},
	{"advisor.elided_ratio", "ratio"},
	{"advisor.evaluate_s", "s"},
	{"advisor.candidates_s", "s"},
	{"advisor.merge_s", "s"},
	{"advisor.enumerate_s", "s"},
	{"parallel.tasks", "count"},
	{"parallel.queue_wait_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.pipeline_s", "s"},
	{"trace.overhead_s", "s"},
}

// layers are the modules the benchmark attributes self time to, in
// pipeline order.
var layers = []string{"workload", "cost", "core", "advisor"}

// benchSpanLayer maps the benchmark's own spans to the layer they wrap.
var benchSpanLayer = map[string]string{
	"bench/workload":         "workload",
	"bench/cost":             "cost",
	"bench/core":             "core",
	"bench/advisor-tune":     "advisor",
	"bench/advisor-evaluate": "advisor",
}

// selfTimes returns each layer's self time under the iteration span: a
// span's duration minus the part its child spans cover, summed per layer.
// A program span belongs to the layer its name starts with when that is
// one of layers, and otherwise to its parent's layer. The iteration
// span's own self time is the time no layer accounts for.
func selfTimes(root *telemetry.Span) (self map[string]time.Duration, unattributed time.Duration) {
	self = make(map[string]time.Duration, len(layers))
	var walk func(sp *telemetry.Span, layer string)
	walk = func(sp *telemetry.Span, layer string) {
		d := sp.Duration()
		for _, c := range sp.Children() {
			d -= c.Duration()
			cl := layer
			if l, ok := benchSpanLayer[c.Name()]; ok {
				cl = l
			} else if area, _, _ := strings.Cut(c.Name(), "/"); isLayer(area) {
				cl = area
			}
			walk(c, cl)
		}
		if layer == "" {
			unattributed += d
		} else {
			self[layer] += d
		}
	}
	walk(root, "")
	return self, unattributed
}

func isLayer(name string) bool {
	for _, l := range layers {
		if l == name {
			return true
		}
	}
	return false
}

// spanTotal sums the durations of every span named name under root.
func spanTotal(root *telemetry.Span, name string) time.Duration {
	var d time.Duration
	if root.Name() == name {
		d += root.Duration()
	}
	for _, c := range root.Children() {
		d += spanTotal(c, name)
	}
	return d
}

// runtimeSample reads the runtime counters an iteration is charged with.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

// layerSample returns the per-layer figures of one traced iteration.
// delta is the registry's change over the iteration; rt the runtime's.
func layerSample(out *outcome, delta *telemetry.Snapshot, rt runtimeSample) map[string]float64 {
	self, unattributed := selfTimes(out.span)
	hitRatio := 0.0
	if n := out.cost.cacheHits + out.cost.cacheMisses; n > 0 {
		hitRatio = float64(out.cost.cacheHits) / float64(n)
	}
	elidedRatio := 0.0
	if n := out.tuneElided + out.tuneCalls; n > 0 {
		elidedRatio = float64(out.tuneElided) / float64(n)
	}
	nanos := func(hist string) float64 { return delta.Histograms[hist].Sum / 1e9 }
	m := map[string]float64{
		"workload.load_s":          spanTotal(out.span, "bench/workload").Seconds(),
		"cost.fill_s":              spanTotal(out.span, "bench/cost").Seconds(),
		"cost.busy_s":              out.cost.busy.Seconds(),
		"cost.whatif_calls":        float64(out.cost.calls),
		"cost.plans":               float64(out.cost.plans),
		"cost.cache_hit_ratio":     hitRatio,
		"cost.elide_hits":          float64(out.cost.elideHits),
		"cost.bound_prunes":        float64(out.cost.boundPrunes),
		"cost.singleflight_waits":  float64(out.cost.singleflightWaits),
		"core.compress_s":          spanTotal(out.span, "bench/core").Seconds(),
		"core.rounds":              float64(out.compressRounds),
		"core.argmax_s":            nanos("core/greedy/argmax_nanos"),
		"core.update_s":            nanos("core/greedy/update_nanos"),
		"core.weigh_s":             spanTotal(out.span, "core/weigh").Seconds(),
		"features.merge_ops":       float64(delta.Counters["features/vec/merge_ops"]),
		"advisor.tune_s":           spanTotal(out.span, "bench/advisor-tune").Seconds(),
		"advisor.whatif_calls":     float64(out.tuneCalls),
		"advisor.configs_explored": float64(out.tuneConfigs),
		"advisor.rounds":           float64(out.tuneRounds),
		"advisor.elided_ratio":     elidedRatio,
		"advisor.evaluate_s":       spanTotal(out.span, "bench/advisor-evaluate").Seconds(),
		"advisor.candidates_s":     spanTotal(out.span, "advisor/candidates").Seconds(),
		"advisor.merge_s":          spanTotal(out.span, "advisor/merge").Seconds(),
		"advisor.enumerate_s":      spanTotal(out.span, "advisor/enumerate").Seconds(),
		"parallel.tasks":           float64(delta.Counters["parallel/pool/tasks"]),
		"parallel.queue_wait_s":    nanos("parallel/pool/queue_wait_nanos"),
		"runtime.gc_cycles":        float64(rt.gcCycles),
		"runtime.gc_cpu_s":         rt.gcCPU,
		"trace.unattributed_s":     unattributed.Seconds(),
		"trace.pipeline_s":         out.pipeline.Seconds(),
	}
	for _, l := range layers {
		m[selfKey(l)] = self[l].Seconds()
	}
	return m
}

// selfKey names a layer's self time in a traced sample. Today each
// layer's self time equals its boundary span (no program span nests
// under another layer's), so it is printed in the report, not gated.
func selfKey(layer string) string { return "self." + layer }
