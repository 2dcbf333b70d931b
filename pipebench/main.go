// Command pipebench is the repository's end-to-end benchmark. It runs the
// whole ISUM pipeline from SQL text (load, FillCosts, compress, tune,
// evaluate) in a closed loop with one client, checks every iteration's
// output, and prints one JSON result line last. README.md records the
// workloads, the metrics and which layer each metric belongs to.
//
// Build and run it from the root of a checkout:
//
//	bash pipebench/run.sh --workload tpch-tune --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"isum/internal/features"
	"isum/internal/parallel"
	"isum/internal/telemetry"
	"isum/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is what the run keeps of one passing iteration.
type sample struct {
	traced bool
	out    *outcome
	rt     runtimeSample
	layers map[string]float64 // traced iterations only
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tpch-tune, scalem-compress or scalem-cons")
	seed := fs.Int64("seed", 1, "seed the query instances are drawn from")
	seconds := fs.Int("seconds", 30, "how long the closed loop runs")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "pipebench"), "directory for the span trace and the count record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "pipebench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1

	in, setupDurs := setup(s, *seed)
	fmt.Fprintf(stdout, "pipebench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d queries=%d k=%d\n",
		s.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), s.queries, s.k)

	// The traced run alternates untraced and traced iterations, so the
	// tracing overhead is measured on the same inputs in the same process.
	var reg *telemetry.Registry
	minIters := 1
	if traced {
		reg = telemetry.New()
		minIters = 2
	}
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	var samples []sample
	attempted, failed := 0, 0
	var firstDigest uint64
	start := time.Now() //lint:allow determinism benchmark timing; the pipeline never reads this clock
	for i := 0; i < minIters || time.Since(start) < budget; i++ {
		iterTraced := traced && i%2 == 1
		var r *telemetry.Registry
		if iterTraced {
			r = reg
		}
		setProgramTelemetry(r)
		// Collect the previous iteration's garbage outside the timed
		// region, so each iteration starts from the same heap, as a
		// fresh tuning session would.
		runtime.GC()
		before := r.Snapshot()
		rt0 := readRuntime()
		out, err := runPipeline(ctx, s, in, r)
		rt := readRuntime().sub(rt0)
		delta := r.Snapshot().Delta(before)
		setProgramTelemetry(nil)

		attempted++
		if err == nil && attempted-failed == 1 {
			firstDigest = out.digest
		}
		if err == nil && out.digest != firstDigest {
			err = fmt.Errorf("output digest %016x differs from the first passing iteration's %016x", out.digest, firstDigest)
		}
		if err != nil {
			failed++
			fmt.Fprintf(stdout, "iteration %d failed: %v\n", i+1, err)
			continue
		}
		fmt.Fprintf(stdout, "iteration %d: traced=%t recommend_s=%.4f pipeline_s=%.4f wall_s=%.4f steal_s=%.2f alloc_mb=%.1f\n",
			i+1, iterTraced, out.recommend.Seconds(), out.pipeline.Seconds(), out.pipelineWall.Seconds(),
			out.steal.Seconds(), float64(rt.allocBytes)/(1<<20))
		smp := sample{traced: iterTraced, out: out, rt: rt}
		if iterTraced {
			smp.layers = layerSample(out, delta, rt)
		}
		samples = append(samples, smp)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if len(samples) == 0 || (traced && len(pick(samples, true, pipelineS)) == 0) {
		fmt.Fprintln(stderr, "pipebench: no iteration passed the output check")
		return 1
	}
	fmt.Fprintf(stdout, "digest %016x (%d of %d iterations match the first)\n", firstDigest, attempted-failed, attempted)
	fmt.Fprintf(stdout, "%-26s %14s %-6s %s\n", "metric", "value", "unit", "detail")
	if traced {
		reportLayers(stdout, samples, res.Metrics)
		if err := writeTrace(reg, *outDir, s.name, *seed); err != nil {
			fmt.Fprintln(stderr, "pipebench:", err)
			return 1
		}
		reportRepeatability(stdout, samples, *outDir, s.name, *seed)
	} else {
		reportEndToEnd(stdout, samples, setupDurs, attempted, failed, res.Metrics)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setProgramTelemetry points the program's process-wide instrumentation
// (worker pool, vector kernels, template consing) at reg; nil disables it.
func setProgramTelemetry(reg *telemetry.Registry) {
	parallel.SetTelemetry(reg)
	features.SetTelemetry(reg)
	workload.SetTelemetry(reg)
}

// pick collects one figure from the samples that were (or were not)
// traced.
func pick(samples []sample, traced bool, f func(sample) float64) []float64 {
	var v []float64
	for _, s := range samples {
		if s.traced == traced {
			v = append(v, f(s))
		}
	}
	return v
}

func recommendS(s sample) float64    { return s.out.recommend.Seconds() }
func pipelineS(s sample) float64     { return s.out.pipeline.Seconds() }
func pipelineWallS(s sample) float64 { return s.out.pipelineWall.Seconds() }
func stealS(s sample) float64        { return s.out.steal.Seconds() }

// report records a metric and prints its report line.
func report(w io.Writer, m map[string]metric, name, unit string, v float64, detail string) {
	m[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(w, "%-26s %14.6f %-6s %s\n", name, v, unit, detail)
}

func reportEndToEnd(w io.Writer, samples []sample, setupDurs []time.Duration, attempted, failed int, m map[string]metric) {
	put := func(name, unit string, v float64, detail string) { report(w, m, name, unit, v, detail) }
	setup := make([]float64, len(setupDurs))
	for i, d := range setupDurs {
		setup[i] = d.Seconds()
	}
	put("setup_s", "s", median(setup), timingDetail(setup))
	rec := pick(samples, false, recommendS)
	put("recommend_s", "s", median(rec), timingDetail(rec))
	pipe := pick(samples, false, pipelineS)
	put("pipeline_s", "s", median(pipe), timingDetail(pipe))
	pct := pick(samples, false, func(s sample) float64 { return s.out.pct })
	put("improvement_pct", "%", median(pct), "full workload, (C(W)-C_I(W))/C(W)x100")
	alloc := pick(samples, false, func(s sample) float64 { return float64(s.rt.allocBytes) / (1 << 20) })
	put("alloc_mb", "MB", median(alloc), fmt.Sprintf("median of %d; heap bytes allocated per iteration", len(alloc)))
	put("peak_rss_mb", "MB", peakRSSMB(), "maximum RSS of the process over the run")
	put("pass_ratio", "ratio", float64(attempted-failed)/float64(attempted), "iterations passing the output check")
	fmt.Fprintf(w, "%-26s %14.6f %-6s %d of %d iterations failed (reported as pass_ratio in the JSON)\n",
		"failed_ratio", float64(failed)/float64(attempted), "ratio", failed, attempted)
	wall := pick(samples, false, pipelineWallS)
	fmt.Fprintf(w, "%-26s %14.6f %-6s %s\n", "pipeline_wall_s", median(wall), "s", "plain wall time, stolen time included; "+timingDetail(wall))
	steal := pick(samples, false, stealS)
	fmt.Fprintf(w, "%-26s %14.6f %-6s %s\n", "steal_s", median(steal), "s", "machine-wide stolen CPU time per iteration")
}

func reportLayers(w io.Writer, samples []sample, m map[string]metric) {
	put := func(name, unit string, v float64, detail string) { report(w, m, name, unit, v, detail) }
	traced := len(pick(samples, true, pipelineS))
	for _, d := range perLayer {
		if d.name == "trace.overhead_s" {
			untraced := pick(samples, false, pipelineS)
			put(d.name, d.unit, median(pick(samples, true, pipelineS))-median(untraced),
				fmt.Sprintf("traced minus untraced pipeline_s median (%d untraced iterations)", len(untraced)))
			continue
		}
		name := d.name
		put(name, d.unit, median(pick(samples, true, func(s sample) float64 { return s.layers[name] })),
			fmt.Sprintf("median of %d traced iterations", traced))
	}
	// Self time per layer, with shares, so the dominant layer reads at a
	// glance.
	selfs := make([]float64, len(layers))
	total := m["trace.unattributed_s"].Value
	for i, l := range layers {
		key := selfKey(l)
		selfs[i] = median(pick(samples, true, func(s sample) float64 { return s.layers[key] }))
		total += selfs[i]
	}
	fmt.Fprint(w, "self time:")
	for i, l := range layers {
		fmt.Fprintf(w, " %s %.4fs (%.1f%%)", l, selfs[i], 100*selfs[i]/total)
	}
	fmt.Fprintf(w, "; unattributed %.2f%%. Spans over parallel workers measure wall time, not CPU time.\n",
		100*m["trace.unattributed_s"].Value/total)
}

// writeTrace writes the traced iterations' spans as Chrome trace-event
// JSON.
func writeTrace(reg *telemetry.Registry, dir, name string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := reg.WriteTraceEvents(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// reportRepeatability prints which counts repeat exactly across the traced
// iterations, and, when an earlier traced run of the same workload and
// seed left its counts in dir, which repeat across runs.
func reportRepeatability(w io.Writer, samples []sample, dir, name string, seed int64) {
	first := map[string]float64{}
	fmt.Fprint(w, "counts across iterations:")
	for _, d := range perLayer {
		if d.unit != "count" {
			continue
		}
		metric := d.name
		v := pick(samples, true, func(s sample) float64 { return s.layers[metric] })
		first[metric] = v[0]
		fmt.Fprintf(w, " %s=%s", metric, rangeOf(v))
	}
	fmt.Fprintln(w)

	path := filepath.Join(dir, fmt.Sprintf("counts-%s-seed%d.json", name, seed))
	if prev, err := os.ReadFile(path); err == nil {
		var earlier map[string]float64
		if json.Unmarshal(prev, &earlier) == nil {
			fmt.Fprint(w, "counts across runs (first traced iteration, the previous run and this one):")
			for _, d := range perLayer {
				if v, ok := first[d.name]; ok {
					fmt.Fprintf(w, " %s=%s", d.name, rangeOf([]float64{earlier[d.name], v}))
				}
			}
			fmt.Fprintln(w)
		}
	}
	b, err := json.Marshal(first)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(w, "counts record not written:", err)
	}
}

// rangeOf renders a count series as "v(exact)" when every value repeats,
// and as its range otherwise.
func rangeOf(v []float64) string {
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	if lo == hi {
		return fmt.Sprintf("%g(exact)", lo)
	}
	return fmt.Sprintf("[%g..%g]", lo, hi)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
