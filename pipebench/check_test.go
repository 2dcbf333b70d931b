package main

import (
	"math"
	"strings"
	"testing"

	"isum/internal/advisor"
	"isum/internal/benchmarks"
	"isum/internal/core"
	"isum/internal/index"
)

func TestCheckOutputsRejectsEachViolation(t *testing.T) {
	g := benchmarks.TPCH(1)
	w, err := g.Workload(22, 1)
	if err != nil {
		t.Fatal(err)
	}
	var eleven []index.Index
	for _, c := range w.Catalog.Table("lineitem").Columns()[:maxIndexes+1] {
		eleven = append(eleven, index.New("lineitem", c.Name))
	}
	s := spec{k: 2}
	valid := func() (*core.Result, *advisor.Result, float64) {
		return &core.Result{Indices: []int{0, 5}, Weights: []float64{0.25, 0.75}},
			&advisor.Result{Config: index.NewConfiguration(eleven[0]), InitialCost: 10, FinalCost: 5},
			50
	}
	c, a, pct := valid()
	if err := checkOutputs(s, w, c, a, pct); err != nil {
		t.Fatalf("valid outputs rejected: %v", err)
	}

	for _, tc := range []struct {
		name, want string
		mutate     func(*core.Result, *advisor.Result, *float64)
	}{
		{"partial compression", "compression: partial", func(c *core.Result, _ *advisor.Result, _ *float64) { c.Partial = true }},
		{"too few indices", "1 indices, want 2", func(c *core.Result, _ *advisor.Result, _ *float64) {
			c.Indices, c.Weights = c.Indices[:1], []float64{1}
		}},
		{"duplicate index", "selected twice", func(c *core.Result, _ *advisor.Result, _ *float64) { c.Indices[1] = 0 }},
		{"index out of range", "out of range", func(c *core.Result, _ *advisor.Result, _ *float64) { c.Indices[1] = 22 }},
		{"weights off one", "sum to", func(c *core.Result, _ *advisor.Result, _ *float64) { c.Weights[1] = 0.75 + 1e-8 }},
		{"zero weight", "not finite and positive", func(c *core.Result, _ *advisor.Result, _ *float64) { c.Weights = []float64{0, 1} }},
		{"NaN weight", "not finite and positive", func(c *core.Result, _ *advisor.Result, _ *float64) { c.Weights[0] = math.NaN() }},
		{"partial tuning", "tuning: partial", func(_ *core.Result, a *advisor.Result, _ *float64) { a.Partial = true }},
		{"too many indexes", "11 indexes", func(_ *core.Result, a *advisor.Result, _ *float64) {
			a.Config = index.NewConfiguration(eleven...)
		}},
		{"unknown column", "unknown column", func(_ *core.Result, a *advisor.Result, _ *float64) {
			a.Config = index.NewConfiguration(index.New("lineitem", "no_such_column"))
		}},
		{"final above initial", "above initial", func(_ *core.Result, a *advisor.Result, _ *float64) { a.FinalCost = 11 }},
		{"improvement above 100", "outside [0,100]", func(_ *core.Result, _ *advisor.Result, p *float64) { *p = 100.5 }},
		{"improvement NaN", "outside [0,100]", func(_ *core.Result, _ *advisor.Result, p *float64) { *p = math.NaN() }},
	} {
		c, a, pct := valid()
		tc.mutate(c, a, &pct)
		err := checkOutputs(s, w, c, a, pct)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDigestCoversEveryOutput(t *testing.T) {
	valid := func() (*core.Result, *advisor.Result, float64) {
		return &core.Result{Indices: []int{0, 5}, Weights: []float64{0.25, 0.75}},
			&advisor.Result{Config: index.NewConfiguration(index.New("lineitem", "l_shipdate"))},
			50
	}
	c, a, pct := valid()
	base := digest(c, a, pct)
	for name, mutate := range map[string]func(*core.Result, *advisor.Result, *float64){
		"position":   func(c *core.Result, _ *advisor.Result, _ *float64) { c.Indices[1] = 6 },
		"weight bit": func(c *core.Result, _ *advisor.Result, _ *float64) { c.Weights[0] = math.Nextafter(0.25, 1) },
		"index": func(_ *core.Result, a *advisor.Result, _ *float64) {
			a.Config = index.NewConfiguration(index.New("lineitem", "l_partkey"))
		},
		"improvement": func(_ *core.Result, _ *advisor.Result, p *float64) { *p = math.Nextafter(50, 100) },
	} {
		c, a, pct := valid()
		mutate(c, a, &pct)
		if digest(c, a, pct) == base {
			t.Errorf("digest ignores a change of %s", name)
		}
	}
}

func TestTimingDetailPercentile(t *testing.T) {
	series := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		want string
	}{
		{5, "no percentile"},
		{39, "no percentile"},
		{40, "p75 30.25"},
		{100, "p90 90.1"},
		{1000, "p99 990.01"},
	} {
		if got := timingDetail(series(tc.n)); !strings.Contains(got, tc.want) {
			t.Errorf("n=%d: %q, want it to contain %q", tc.n, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
