package patternfusion_test

import (
	"context"
	"strings"
	"testing"

	patternfusion "repro"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	db, err := patternfusion.New([][]int{
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{4, 5},
		{4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 5 || db.NumItems() != 6 {
		t.Fatalf("db shape wrong: %v", db.ComputeStats())
	}
	cfg := patternfusion.DefaultConfig(2, 0.4)
	res, err := patternfusion.Mine(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 || len(res.Patterns) > 2 {
		t.Fatalf("K=2 mining returned %d patterns", len(res.Patterns))
	}
	if !res.Patterns[0].Items.Equal(patternfusion.Canonical([]int{3, 2, 1, 0})) {
		t.Fatalf("largest pattern = %v, want (0 1 2 3)", res.Patterns[0].Items)
	}
}

func TestPublicReadWrite(t *testing.T) {
	db, err := patternfusion.Read(strings.NewReader("1 2 3\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 {
		t.Fatalf("Size = %d", db.Size())
	}
}

// mine runs the named registered algorithm on db and returns its patterns.
func mine(t *testing.T, name string, db *patternfusion.Dataset, opts patternfusion.Options) []*patternfusion.Pattern {
	t.Helper()
	rep, err := patternfusion.MineWith(context.Background(), name, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Patterns
}

func TestExactMinersAgreeThroughPublicAPI(t *testing.T) {
	db := patternfusion.RandomDB(5, 30, 8, 0.4)
	at3 := patternfusion.Options{MinCount: 3}
	ap := mine(t, "apriori", db, at3)
	ec := mine(t, "eclat", db, at3)
	fp := mine(t, "fpgrowth", db, at3)
	if len(ap) != len(ec) || len(ap) != len(fp) {
		t.Fatalf("miner cardinalities differ: apriori=%d eclat=%d fp=%d", len(ap), len(ec), len(fp))
	}
	closed := mine(t, "closed", db, at3)
	rows := mine(t, "closedrows", db, at3)
	if len(closed) != len(rows) {
		t.Fatalf("closed miners differ: charm=%d carpenter=%d", len(closed), len(rows))
	}
	for _, p := range closed {
		if !patternfusion.IsClosed(db, p.Items) {
			t.Fatalf("%v not closed", p.Items)
		}
	}
	for _, p := range mine(t, "maximal", db, at3) {
		if !patternfusion.IsMaximal(db, p.Items, 3) {
			t.Fatalf("%v not maximal", p.Items)
		}
	}
}

// TestTopKThroughPublicAPI checks the top-k contract against the closed
// miner: no closed pattern of the minimum length left out of the report
// is more frequent than the least frequent pattern reported.
func TestTopKThroughPublicAPI(t *testing.T) {
	db := patternfusion.RandomDB(6, 40, 8, 0.4)
	top := mine(t, "topk", db, patternfusion.Options{K: 5, MinSize: 2})
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("topk returned %d", len(top))
	}
	reported := make(map[string]bool, len(top))
	least := top[0].Support()
	for _, p := range top {
		reported[p.Items.Key()] = true
		least = min(least, p.Support())
	}
	for _, p := range mine(t, "closed", db, patternfusion.Options{MinCount: 1, MinSize: 2}) {
		if !reported[p.Items.Key()] && p.Support() > least {
			t.Fatalf("closed %v (support %d) left out of a top-5 whose least support is %d", p.Items, p.Support(), least)
		}
	}
}

func TestQualityThroughPublicAPI(t *testing.T) {
	q := []patternfusion.Itemset{{0, 1, 2, 3, 4}, {10, 11, 12}}
	if d := patternfusion.Delta(q, q); d != 0 {
		t.Fatalf("Δ(Q,Q) = %v", d)
	}
	if patternfusion.EditDistance(q[0], q[1]) != 8 {
		t.Fatal("edit distance wrong")
	}
	ap := patternfusion.Evaluate(q, q)
	if len(ap.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(ap.Clusters))
	}
}

func TestGeneratorsThroughPublicAPI(t *testing.T) {
	if patternfusion.Diag(10).Size() != 10 {
		t.Fatal("Diag wrong")
	}
	if patternfusion.DiagPlus(10, 5, 8).Size() != 15 {
		t.Fatal("DiagPlus wrong")
	}
	db, paths := patternfusion.ReplaceSim(1)
	if db.Size() != 4395 || len(paths) != 3 {
		t.Fatal("ReplaceSim wrong")
	}
	if patternfusion.MicroarraySim(1).Size() != 38 {
		t.Fatal("MicroarraySim wrong")
	}
}

func TestCoreConceptsThroughPublicAPI(t *testing.T) {
	db, _ := patternfusion.New([][]int{{0, 1}, {0, 1}, {0}})
	alpha := patternfusion.Itemset{0, 1}
	if !patternfusion.IsCore(db, patternfusion.Itemset{1}, alpha, 0.5) {
		t.Fatal("(1) should be a 0.5-core of (0 1)")
	}
	if patternfusion.Robustness(db, alpha, 0.9) < 1 {
		t.Fatal("robustness should allow removing item 1")
	}
	if got := patternfusion.Radius(0.5); got < 0.66 || got > 0.67 {
		t.Fatalf("Radius(0.5) = %v", got)
	}
	if n := len(patternfusion.CorePatterns(db, alpha, 0.5)); n == 0 {
		t.Fatal("no core patterns found")
	}
}

func TestMineFromPoolThroughPublicAPI(t *testing.T) {
	db := patternfusion.DiagPlus(10, 5, 8)
	pool := mine(t, "apriori", db, patternfusion.Options{MinCount: 5, MaxSize: 2})
	if len(pool) == 0 {
		t.Fatal("empty initial pool")
	}
	cfg := patternfusion.DefaultConfig(5, 0)
	cfg.MinCount = 5
	res, err := patternfusion.MineFromPool(context.Background(), db, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InitPoolSize != len(pool) {
		t.Fatalf("InitPoolSize = %d, want %d", res.InitPoolSize, len(pool))
	}
}
