package apriori

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/minertest"
	"repro/internal/rng"
)

func smallDB(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.MustNew([][]int{
		{0, 1, 3},
		{1, 2, 4},
		{0, 2, 4},
		{0, 1, 2, 3, 4},
	})
}

func TestMineCompleteSmall(t *testing.T) {
	d := smallDB(t)
	res := MineOpts(context.Background(), d, Options{MinCount: 2})
	got, noDup := minertest.PatternsToMap(res.Patterns)
	if !noDup {
		t.Fatal("duplicate patterns in Apriori output")
	}
	want := minertest.BruteForceFrequent(d, 2)
	if !minertest.SameMap(got, want) {
		t.Fatalf("Apriori != brute force: %d vs %d patterns", len(got), len(want))
	}
}

func TestMineAgainstBruteForceRandom(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 30; trial++ {
		numTxns := 5 + r.Intn(25)
		numItems := 3 + r.Intn(8)
		d := datagen.Random(r.Split(), numTxns, numItems, 0.4)
		minCount := 1 + r.Intn(4)
		res := MineOpts(context.Background(), d, Options{MinCount: minCount})
		got, noDup := minertest.PatternsToMap(res.Patterns)
		if !noDup {
			t.Fatalf("trial %d: duplicates", trial)
		}
		want := minertest.BruteForceFrequent(d, minCount)
		if !minertest.SameMap(got, want) {
			t.Fatalf("trial %d (txns=%d items=%d min=%d): got %d patterns, want %d",
				trial, numTxns, numItems, minCount, len(got), len(want))
		}
	}
}

func TestMineUpToBoundsSize(t *testing.T) {
	d := smallDB(t)
	res := MineOpts(context.Background(), d, Options{MinCount: 1, MaxSize: 2})
	for _, p := range res.Patterns {
		if len(p.Items) > 2 {
			t.Fatalf("pattern %v exceeds MaxSize", p.Items)
		}
	}
	// Every frequent 1- and 2-itemset must be present.
	want := 0
	for k := range minertest.BruteForceFrequent(d, 1) {
		s, _ := itemset.ParseKey(k)
		if len(s) <= 2 {
			want++
		}
	}
	if len(res.Patterns) != want {
		t.Fatalf("MineUpTo found %d patterns, want %d", len(res.Patterns), want)
	}
}

func TestInitialPoolSizeDiag40(t *testing.T) {
	// The paper (Section 6): "Pattern-Fusion starts with an initial pool of
	// 820 patterns of size ≤ 2" on Diag40 with support count 20. Indeed:
	// 40 singletons + C(40,2) = 820, all with support ≥ 38 ≥ 20.
	d := datagen.Diag(40)
	res := MineOpts(context.Background(), d, Options{MinCount: 20, MaxSize: 2})
	if len(res.Patterns) != 820 {
		t.Fatalf("Diag40 initial pool = %d patterns, want 820", len(res.Patterns))
	}
}

func TestLevelsAccounting(t *testing.T) {
	d := smallDB(t)
	res := MineOpts(context.Background(), d, Options{MinCount: 2})
	total := 0
	for k, n := range res.Levels {
		total += n
		for _, p := range res.Patterns {
			_ = p
		}
		if n < 0 {
			t.Fatalf("level %d negative", k)
		}
	}
	if total != len(res.Patterns) {
		t.Fatalf("levels sum %d != %d patterns", total, len(res.Patterns))
	}
}

func TestDownwardClosure(t *testing.T) {
	r := rng.New(7)
	d := datagen.Random(r, 30, 8, 0.5)
	res := MineOpts(context.Background(), d, Options{MinCount: 3})
	index, _ := minertest.PatternsToMap(res.Patterns)
	for _, p := range res.Patterns {
		for _, drop := range p.Items {
			sub := p.Items.Remove(drop)
			if len(sub) == 0 {
				continue
			}
			if _, ok := index[sub.Key()]; !ok {
				t.Fatalf("downward closure violated: %v frequent but %v missing", p.Items, sub)
			}
		}
	}
}

func TestSupportSetsAreExact(t *testing.T) {
	r := rng.New(8)
	d := datagen.Random(r, 40, 7, 0.45)
	for _, p := range MineOpts(context.Background(), d, Options{MinCount: 2}).Patterns {
		if !p.TIDs.Equal(d.TIDSet(p.Items)) {
			t.Fatalf("pattern %v carries wrong tidset", p.Items)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	d := dataset.MustNew(nil)
	if got := MineOpts(context.Background(), d, Options{MinCount: 1}).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset yielded %d patterns", len(got))
	}
	d2 := dataset.MustNew([][]int{{}, {}})
	if got := MineOpts(context.Background(), d2, Options{MinCount: 1}).Patterns; len(got) != 0 {
		t.Fatalf("all-empty transactions yielded %d patterns", len(got))
	}
	d3 := dataset.MustNew([][]int{{5}})
	got := MineOpts(context.Background(), d3, Options{MinCount: 1}).Patterns
	if len(got) != 1 || !got[0].Items.Equal(itemset.Itemset{5}) {
		t.Fatalf("single-item dataset mined %v", got)
	}
}

func TestMinCountBelowOneTreatedAsOne(t *testing.T) {
	d := smallDB(t)
	a := MineOpts(context.Background(), d, Options{MinCount: 0})
	b := MineOpts(context.Background(), d, Options{MinCount: 1})
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatal("minCount 0 and 1 differ")
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(20)
	res := MineOpts(minertest.CancelAfter(1), d, Options{MinCount: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}
