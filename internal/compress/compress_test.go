package compress

import (
	"fmt"
	"math"
	"testing"

	"isum/internal/catalog"
	"isum/internal/core"
	"isum/internal/cost"
	"isum/internal/workload"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	o := catalog.NewTable("orders", 1000000)
	o.AddColumn(&catalog.Column{Name: "o_orderkey", Type: catalog.TypeInt, DistinctCount: 1000000, Min: 1, Max: 1000000,
		Hist: catalog.SyntheticHistogram(1, 1000000, 1000000, 1000000, 40, 0)})
	o.AddColumn(&catalog.Column{Name: "o_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 100000,
		Hist: catalog.SyntheticHistogram(1, 100000, 1000000, 100000, 40, 0)})
	o.AddColumn(&catalog.Column{Name: "o_totalprice", Type: catalog.TypeDecimal, DistinctCount: 900000, Min: 1, Max: 500000,
		Hist: catalog.SyntheticHistogram(1, 500000, 1000000, 900000, 40, 0)})
	cat.AddTable(o)
	c := catalog.NewTable("customer", 100000)
	c.AddColumn(&catalog.Column{Name: "c_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 100000,
		Hist: catalog.SyntheticHistogram(1, 100000, 100000, 100000, 20, 0)})
	c.AddColumn(&catalog.Column{Name: "c_nationkey", Type: catalog.TypeInt, DistinctCount: 25, Min: 0, Max: 24,
		Hist: catalog.SyntheticHistogram(0, 24, 100000, 25, 25, 0)})
	cat.AddTable(c)
	return cat
}

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cat := testCatalog()
	var sqls []string
	for i := 0; i < 10; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", i+1))
	}
	for i := 0; i < 6; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT c_custkey FROM customer WHERE c_nationkey = %d", i))
	}
	for i := 0; i < 4; i++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_nationkey = %d", i))
	}
	w, err := workload.New(cat, sqls)
	if err != nil {
		t.Fatal(err)
	}
	cost.NewOptimizer(cat).FillCosts(w)
	return w
}

// checkResult validates the common contract of every compressor.
func checkResult(t *testing.T, name string, w *workload.Workload, res *core.Result, k int) {
	t.Helper()
	if len(res.Indices) != k {
		t.Fatalf("%s: selected %d, want %d", name, len(res.Indices), k)
	}
	if len(res.Weights) != len(res.Indices) {
		t.Fatalf("%s: weights/indices mismatch", name)
	}
	seen := map[int]bool{}
	var sum float64
	for i, idx := range res.Indices {
		if idx < 0 || idx >= w.Len() {
			t.Fatalf("%s: index %d out of range", name, idx)
		}
		if seen[idx] {
			t.Fatalf("%s: duplicate index %d", name, idx)
		}
		seen[idx] = true
		if res.Weights[i] < 0 {
			t.Fatalf("%s: negative weight", name)
		}
		sum += res.Weights[i]
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("%s: weights sum to %f", name, sum)
	}
}

func allCompressors() []Compressor {
	return []Compressor{
		&Uniform{Seed: 7},
		&CostTopK{},
		&Stratified{Seed: 7},
		&GSUM{},
		&KMedoid{Seed: 7},
		core.New(core.DefaultOptions()),
		core.New(core.ISUMSOptions()),
	}
}

func TestAllCompressorsContract(t *testing.T) {
	w := testWorkload(t)
	for _, c := range allCompressors() {
		for _, k := range []int{1, 3, 5} {
			res := c.Compress(w, k)
			checkResult(t, c.Name(), w, res, k)
		}
	}
}

func TestCompressorsDeterministic(t *testing.T) {
	w := testWorkload(t)
	for _, c := range allCompressors() {
		a := c.Compress(w, 4)
		b := c.Compress(w, 4)
		if fmt.Sprint(a.Indices) != fmt.Sprint(b.Indices) {
			t.Fatalf("%s: non-deterministic: %v vs %v", c.Name(), a.Indices, b.Indices)
		}
	}
}

func TestCostTopKOrdering(t *testing.T) {
	w := testWorkload(t)
	res := (&CostTopK{}).Compress(w, 3)
	minSel := math.Inf(1)
	for _, idx := range res.Indices {
		if c := w.Queries[idx].Cost; c < minSel {
			minSel = c
		}
	}
	for i, q := range w.Queries {
		picked := false
		for _, idx := range res.Indices {
			if idx == i {
				picked = true
			}
		}
		if !picked && q.Cost > minSel+1e-9 {
			t.Fatalf("query %d (cost %f) outranks a pick (min %f)", i, q.Cost, minSel)
		}
	}
}

func TestStratifiedCoversTemplates(t *testing.T) {
	w := testWorkload(t) // 3 templates
	res := (&Stratified{Seed: 3}).Compress(w, 3)
	templates := map[string]bool{}
	for _, idx := range res.Indices {
		templates[w.Queries[idx].TemplateID] = true
	}
	if len(templates) != 3 {
		t.Fatalf("stratified picked %d templates, want 3: %v", len(templates), res.Indices)
	}
}

func TestGSUMCoversFeatures(t *testing.T) {
	w := testWorkload(t)
	res := (&GSUM{}).Compress(w, 3)
	// With 3 distinct query shapes, GSUM's coverage term should force picks
	// across shapes.
	templates := map[string]bool{}
	for _, idx := range res.Indices {
		templates[w.Queries[idx].TemplateID] = true
	}
	if len(templates) < 2 {
		t.Fatalf("GSUM collapsed to one template: %v", res.Indices)
	}
}

func TestKMedoidClusters(t *testing.T) {
	w := testWorkload(t)
	res := (&KMedoid{Seed: 11}).Compress(w, 3)
	if len(res.Indices) == 0 || len(res.Indices) > 3 {
		t.Fatalf("k-medoid picks = %v", res.Indices)
	}
	// Weights reflect cluster cost shares and sum to ~1 when no medoids
	// collapsed.
	var sum float64
	for _, wt := range res.Weights {
		sum += wt
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Fatalf("weights sum = %f", sum)
	}
}

func TestUniformSeedVariation(t *testing.T) {
	w := testWorkload(t)
	a := (&Uniform{Seed: 1}).Compress(w, 5)
	b := (&Uniform{Seed: 2}).Compress(w, 5)
	if fmt.Sprint(a.Indices) == fmt.Sprint(b.Indices) {
		t.Log("different seeds produced identical samples (possible but unlikely)")
	}
}

func TestKGreaterThanN(t *testing.T) {
	w := testWorkload(t)
	for _, c := range allCompressors() {
		res := c.Compress(w, w.Len()+10)
		checkResult(t, c.Name(), w, res, w.Len())
	}
}

func TestEmptyWorkload(t *testing.T) {
	w := &workload.Workload{Catalog: testCatalog()}
	for _, c := range allCompressors() {
		res := c.Compress(w, 3)
		if len(res.Indices) != 0 {
			t.Fatalf("%s: selected from empty workload", c.Name())
		}
	}
}

func TestGSUMAlphaExtremes(t *testing.T) {
	w := testWorkload(t)
	coverageOnly := (&GSUM{Alpha: 0.999}).Compress(w, 3)
	repOnly := (&GSUM{Alpha: 0.001}).Compress(w, 3)
	checkResult(t, "GSUM-coverage", w, coverageOnly, 3)
	checkResult(t, "GSUM-rep", w, repOnly, 3)
	// Pure coverage must span templates.
	templates := map[string]bool{}
	for _, idx := range coverageOnly.Indices {
		templates[w.Queries[idx].TemplateID] = true
	}
	if len(templates) < 2 {
		t.Fatalf("coverage-heavy GSUM collapsed: %v", coverageOnly.Indices)
	}
}

func TestKMedoidIterationCap(t *testing.T) {
	w := testWorkload(t)
	capped := (&KMedoid{Seed: 5, MaxIterations: 1}).Compress(w, 3)
	free := (&KMedoid{Seed: 5, MaxIterations: 50}).Compress(w, 3)
	if len(capped.Indices) == 0 || len(free.Indices) == 0 {
		t.Fatal("k-medoid produced nothing")
	}
	// Both valid results; iteration cap is about time, not validity.
	for _, res := range []*core.Result{capped, free} {
		for _, idx := range res.Indices {
			if idx < 0 || idx >= w.Len() {
				t.Fatal("index out of range")
			}
		}
	}
}
