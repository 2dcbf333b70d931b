package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"isum/internal/benchmarks"
	"isum/internal/catalog"
)

// spec is one benchmark workload: a generator operating point plus the
// compression and tuning settings the pipeline runs with. README.md
// records why each was chosen and which layer it loads.
type spec struct {
	name string
	// gen builds the catalog and the templates. They do not depend on
	// the run's seed: a database stays the same across tuning sessions,
	// and the seed draws the query instances. Letting the seed pick the
	// ScaleM schema moved improvement_pct between 17% and 29% over seeds
	// 2-6, noise that would hide any real change.
	gen func() *benchmarks.Generator
	// queries is the workload size; instance i uses template i mod T.
	queries int
	// k is the compressed workload size handed to the advisor.
	k int
	// cons turns on template hash-consing in the compressor.
	cons bool
}

// maxIndexes is the advisor's configuration-size constraint on every
// workload.
const maxIndexes = 10

var specs = []spec{
	{
		name:    "tpch-tune",
		gen:     func() *benchmarks.Generator { return benchmarks.TPCH(10) },
		queries: 2000,
		k:       40,
	},
	{
		// k=80 over 10,000 queries does the greedy work of k=40 over
		// 20,000 (k·n benefit evaluations). At k=40, improvement_pct fell
		// into two groups across seeds, about 13.1% or 16.1%.
		name:    "scalem-compress",
		gen:     scaleM,
		queries: 10000,
		k:       80,
	},
	{
		name:    "scalem-cons",
		gen:     scaleM,
		queries: 100000,
		k:       40,
		cons:    true,
	},
}

// scaleM is the ScaleM schema and template set every ScaleM workload runs
// on: 2,000 templates over the 474-table Real-M profile, generator seed 1.
func scaleM() *benchmarks.Generator { return benchmarks.ScaleM(1, 2000) }

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	sort.Strings(names)
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// inputs are what the program receives: a catalog and SQL text.
type inputs struct {
	cat  *catalog.Catalog
	sqls []string
}

// A run builds its inputs at least minSetups times, and more until
// setupBudget has passed or maxSetups are done; setup_s is the median.
// Repeating a set-up of a few milliseconds steadies its median.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = 2 * time.Second
)

// setup builds the catalog and generates the SQL text from the seed, the
// same draws benchmarks.Generator.Workload makes, but stopping before
// parsing: parsing is the workload layer's job and is timed per
// iteration. It returns the last inputs with every build's served time.
func setup(s spec, seed int64) (*inputs, []time.Duration) {
	var in *inputs
	var durs []time.Duration
	var total time.Duration
	for r := 0; r < minSetups || (r < maxSetups && total < setupBudget); r++ {
		// Each build starts from a collected heap, as the first does in a
		// fresh process.
		runtime.GC()
		start := readStamp()
		g := s.gen()
		rng := rand.New(rand.NewSource(seed))
		sqls := make([]string, s.queries)
		for i := range sqls {
			sqls[i] = g.Templates[i%len(g.Templates)].Gen(rng)
		}
		in = &inputs{cat: g.Cat, sqls: sqls}
		d := served(start, readStamp())
		durs = append(durs, d)
		total += d
	}
	return in, durs
}
