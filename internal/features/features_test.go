package features

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"isum/internal/catalog"
	"isum/internal/workload"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	o := catalog.NewTable("orders", 1500000)
	o.AddColumn(&catalog.Column{Name: "o_orderkey", Type: catalog.TypeInt, DistinctCount: 1500000, Min: 1, Max: 6000000})
	o.AddColumn(&catalog.Column{Name: "o_custkey", Type: catalog.TypeInt, DistinctCount: 100000, Min: 1, Max: 150000})
	o.AddColumn(&catalog.Column{Name: "o_orderdate", Type: catalog.TypeDate, DistinctCount: 2400, Min: 8000, Max: 10500})
	o.AddColumn(&catalog.Column{Name: "o_totalprice", Type: catalog.TypeDecimal, DistinctCount: 1400000, Min: 800, Max: 600000})
	cat.AddTable(o)
	c := catalog.NewTable("customer", 150000)
	c.AddColumn(&catalog.Column{Name: "c_custkey", Type: catalog.TypeInt, DistinctCount: 150000, Min: 1, Max: 150000})
	c.AddColumn(&catalog.Column{Name: "c_nationkey", Type: catalog.TypeInt, DistinctCount: 25, Min: 0, Max: 24})
	cat.AddTable(c)
	return cat
}

func q(t *testing.T, cat *catalog.Catalog, sql string) *workload.Query {
	t.Helper()
	qq, err := workload.NewQuery(cat, 0, sql)
	if err != nil {
		t.Fatal(err)
	}
	return qq
}

func TestWeightedJaccardProperties(t *testing.T) {
	a := Vector{"x": 1, "y": 0.5}
	b := Vector{"x": 0.5, "z": 1}
	s := WeightedJaccard(a, b)
	// min: x→0.5; max: x→1, y→0.5, z→1 → 0.5/2.5
	if math.Abs(s-0.2) > 1e-12 {
		t.Fatalf("jaccard = %f, want 0.2", s)
	}
	if WeightedJaccard(a, a) != 1 {
		t.Fatal("self similarity must be 1")
	}
	if WeightedJaccard(a, Vector{}) != 0 || WeightedJaccard(Vector{}, b) != 0 {
		t.Fatal("empty vector similarity must be 0")
	}
}

func TestWeightedJaccardQuickProperties(t *testing.T) {
	gen := func(seed int64) Vector {
		rng := rand.New(rand.NewSource(seed))
		v := Vector{}
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			v["f"+strconv.Itoa(rng.Intn(10))] = rng.Float64() + 0.01
		}
		return v
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		s := WeightedJaccard(a, b)
		if s < 0 || s > 1 {
			return false
		}
		// Symmetry.
		if math.Abs(s-WeightedJaccard(b, a)) > 1e-12 {
			return false
		}
		// Identity.
		if len(a) > 0 && WeightedJaccard(a, a) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{"a": 1, "b": 2}
	c := v.Clone()
	c["a"] = 9
	if v["a"] != 1 {
		t.Fatal("clone not isolated")
	}
	if v.Sum() != 3 {
		t.Fatalf("sum = %f", v.Sum())
	}
	v.Scale(2)
	if v["b"] != 4 {
		t.Fatal("scale failed")
	}
	v.AddScaled(Vector{"c": 1}, 0.5)
	if v["c"] != 0.5 {
		t.Fatal("addscaled failed")
	}
	v.SubClamped(Vector{"b": 10, "c": 0.1})
	if _, ok := v["b"]; ok {
		t.Fatal("subclamped should drop non-positive entries")
	}
	if math.Abs(v["c"]-0.4) > 1e-12 {
		t.Fatalf("c = %f", v["c"])
	}
	v.ZeroShared(Vector{"a": 1})
	if _, ok := v["a"]; ok {
		t.Fatal("zeroshared failed")
	}
	if !(Vector{}).AllZero() || (Vector{"x": 1}).AllZero() {
		t.Fatal("allzero broken")
	}
}

func TestExtractFeatureKeys(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	query := q(t, cat, `SELECT o_totalprice FROM customer, orders
		WHERE c_custkey = o_custkey AND c_nationkey = 7
		GROUP BY o_totalprice ORDER BY o_totalprice`)
	v := ex.Features(query)
	for _, want := range []string{"customer.c_custkey", "orders.o_custkey", "customer.c_nationkey", "orders.o_totalprice"} {
		if v[want] <= 0 {
			t.Fatalf("feature %q missing: %v", want, v)
		}
	}
	if len(v) != 4 {
		t.Fatalf("features = %v", v)
	}
}

func TestRuleWeightsOrdering(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.UseTableWeight = false // isolate the positional weights
	query := q(t, cat, `SELECT * FROM orders WHERE o_custkey = 5 AND o_orderkey = o_totalprice
		ORDER BY o_orderdate`)
	// o_custkey: filter; o_orderkey/o_totalprice: (non-equi, both ranges);
	// use a cleaner query instead:
	query = q(t, cat, `SELECT o_custkey FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 100 ORDER BY o_orderdate`)
	v := ex.Features(query)
	// Selection (o_totalprice) and join (o_custkey) columns should outweigh
	// the order-by column (o_orderdate), per Section 4.2.
	if v["orders.o_orderdate"] >= v["orders.o_totalprice"] {
		t.Fatalf("order-by should weigh less than selection: %v", v)
	}
	if v["orders.o_orderdate"] >= v["orders.o_custkey"] {
		t.Fatalf("order-by should weigh less than join: %v", v)
	}
	if v["orders.o_orderdate"] <= 0 {
		t.Fatalf("order-by column must still be present: %v", v)
	}
}

func TestTableWeightEffect(t *testing.T) {
	cat := testCatalog()
	with := NewExtractor(cat)
	without := NewExtractor(cat)
	without.UseTableWeight = false
	query := q(t, cat, `SELECT 1 FROM customer, orders WHERE c_nationkey = 3 AND o_totalprice > 100`)
	vw := with.Features(query)
	vo := without.Features(query)
	// orders has 10× the rows of customer: with table weighting the orders
	// column must dominate after normalisation.
	if vw["orders.o_totalprice"] <= vw["customer.c_nationkey"] {
		t.Fatalf("table weight should favour large table: %v", vw)
	}
	// Without table weighting both are pure selection columns on their
	// tables with equal positional weight.
	if math.Abs(vo["orders.o_totalprice"]-vo["customer.c_nationkey"]) > 1e-9 {
		t.Fatalf("without table weight they should tie: %v", vo)
	}
}

func TestStatsBasedWeights(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.Mode = StatsBased
	ex.UseTableWeight = false
	query := q(t, cat, `SELECT 1 FROM orders WHERE o_orderkey = 77 AND o_totalprice > 100`)
	v := ex.Features(query)
	// o_orderkey equality is far more selective than the (unselective)
	// price range, so it should carry more weight.
	if v["orders.o_orderkey"] <= v["orders.o_totalprice"] {
		t.Fatalf("selective filter should weigh more: %v", v)
	}
}

func TestNormalizationModes(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	query := q(t, cat, `SELECT 1 FROM orders WHERE o_custkey = 5 AND o_totalprice > 100 ORDER BY o_orderdate`)

	v := ex.Features(query)
	var maxW float64
	for _, w := range v {
		if w > maxW {
			maxW = w
		}
	}
	if math.Abs(maxW-1) > 1e-12 {
		t.Fatalf("NormMax should peak at 1: %v", v)
	}

	ex.Norm = NormNone
	raw := ex.Features(query)
	for _, w := range raw {
		if w > 1 {
			t.Fatalf("raw rule weights must be ≤ 1: %v", raw)
		}
	}

	ex.Norm = NormMinMaxPaper
	paper := ex.Features(query)
	if len(paper) != len(v) {
		t.Fatal("paper normalisation changed the support")
	}
}

func TestFeaturesEmptyForNoPredicates(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	v := ex.Features(q(t, cat, "SELECT 1"))
	if len(v) != 0 {
		t.Fatalf("features = %v", v)
	}
}

func TestSummaryFeatures(t *testing.T) {
	vecs := []Vector{
		{"a": 1, "b": 0.5},
		{"b": 1},
	}
	utils := []float64{0.75, 0.25}
	v := Summary(vecs, utils)
	if math.Abs(v["a"]-0.75) > 1e-12 {
		t.Fatalf("a = %f", v["a"])
	}
	if math.Abs(v["b"]-(0.5*0.75+0.25)) > 1e-12 {
		t.Fatalf("b = %f", v["b"])
	}
}

func TestExcludeFromSummary(t *testing.T) {
	vecs := []Vector{
		{"a": 1, "b": 0.5},
		{"b": 1, "c": 1},
	}
	utils := []float64{0.6, 0.4}
	v := Summary(vecs, utils)
	// Excluding query 0 should leave exactly the summary of query 1 scaled
	// back to total utility 1.
	vExcl := ExcludeFromSummary(v, vecs[0], utils[0], 1.0)
	want := vecs[1].Clone().Scale(utils[1] * (1.0 / 0.4))
	for k, w := range want {
		if math.Abs(vExcl[k]-w) > 1e-9 {
			t.Fatalf("excl[%s] = %f, want %f (full: %v)", k, vExcl[k], w, vExcl)
		}
	}
	if _, ok := vExcl["a"]; ok {
		t.Fatalf("a should vanish: %v", vExcl)
	}
	// Excluding the only query yields empty.
	if got := ExcludeFromSummary(Summary(vecs[:1], utils[:1]), vecs[0], 0.6, 0.6); len(got) != 0 {
		t.Fatalf("sole-query exclusion = %v", got)
	}
}

func TestCandidateIndexIDs(t *testing.T) {
	cat := testCatalog()
	query := q(t, cat, `SELECT o_totalprice FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 100 ORDER BY o_orderdate`)
	ids := CandidateIndexIDs(query.Info)
	for _, want := range []string{
		"orders(o_totalprice)",                       // R1
		"orders(o_custkey)",                          // R2
		"orders(o_totalprice,o_custkey)",             // R3
		"orders(o_custkey,o_totalprice)",             // R4
		"orders(o_orderdate,o_totalprice,o_custkey)", // R5
		"orders(o_orderdate,o_custkey,o_totalprice)", // R7
		"customer(c_custkey)",
	} {
		if !ids[want] {
			t.Fatalf("candidate %q missing: %v", want, ids)
		}
	}
}

func TestSetJaccard(t *testing.T) {
	a := map[string]bool{"x": true, "y": true}
	b := map[string]bool{"y": true, "z": true}
	if got := SetJaccard(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("jaccard = %f", got)
	}
	if SetJaccard(a, map[string]bool{}) != 0 {
		t.Fatal("empty set similarity must be 0")
	}
	if SetJaccard(a, a) != 1 {
		t.Fatal("self similarity must be 1")
	}
}

func TestPlainJaccardVector(t *testing.T) {
	a := Vector{"x": 1, "y": 0.2}
	b := Vector{"y": 5, "z": 3}
	if got := Jaccard(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("jaccard = %f", got)
	}
	if Jaccard(a, Vector{}) != 0 {
		t.Fatal("empty must be 0")
	}
}

// TestRuleWeightExactValues pins the Table-1 candidate-counting arithmetic
// on a hand-computed example: S=1 selection, J=1 join, O=1 order-by column
// on one table.
//
//	d(t)      = S + J + G + O + 2SJ + 2OSJ + 2GSJ = 1+1+0+1+2+2+0 = 7
//	d(t,sel)  = 1 + 2J + 2OJ + 2GJ                = 1+2+2+0       = 5
//	d(t,join) = 1 + 2S + 2OS + 2GS                = 1+2+2+0       = 5
//	d(t,ob)   = 1 + 2SJ                           = 1+2           = 3
func TestRuleWeightExactValues(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.UseTableWeight = false
	ex.Norm = NormNone
	query := q(t, cat, `SELECT 1 FROM customer, orders
		WHERE c_custkey = o_custkey AND o_totalprice > 100 ORDER BY o_orderdate`)
	v := ex.Features(query)
	// orders has S=1 (o_totalprice), J=1 (o_custkey), O=1 (o_orderdate).
	checks := map[string]float64{
		"orders.o_totalprice": 5.0 / 7.0,
		"orders.o_custkey":    5.0 / 7.0,
		"orders.o_orderdate":  3.0 / 7.0,
		// customer has only the join column: d(t)=1, d(t,c)=1.
		"customer.c_custkey": 1.0,
	}
	for key, want := range checks {
		if math.Abs(v[key]-want) > 1e-12 {
			t.Errorf("%s = %f, want %f (full: %v)", key, v[key], want, v)
		}
	}
}

// TestRuleWeightGroupOnlyQuery: a query with only group-by columns should
// still featurise (the singleton-rule extension, DESIGN.md §5).
func TestRuleWeightGroupOnlyQuery(t *testing.T) {
	cat := testCatalog()
	ex := NewExtractor(cat)
	ex.UseTableWeight = false
	query := q(t, cat, "SELECT o_orderdate, COUNT(*) FROM orders GROUP BY o_orderdate")
	v := ex.Features(query)
	if math.Abs(v["orders.o_orderdate"]-1) > 1e-12 {
		t.Fatalf("group-only weight = %v", v)
	}
}

// TestTableWeightMatchesCatalog pins the extractor's per-query hoisting
// of the catalog row total: its table weight must carry exactly the bits
// catalog.TableWeight returns, for known and unknown tables alike.
func TestTableWeightMatchesCatalog(t *testing.T) {
	for _, cat := range []*catalog.Catalog{testCatalog(), catalog.New()} {
		total := cat.TotalRows()
		for _, name := range []string{"orders", "ORDERS", "customer", "missing"} {
			got, want := tableWeight(cat, name, total), cat.TableWeight(name)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: tableWeight %v, catalog %v", name, got, want)
			}
		}
	}
}
