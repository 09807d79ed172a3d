package topk

import (
	"context"
	"sort"
	"testing"

	"repro/internal/charm"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minertest"
	"repro/internal/rng"
)

// oracleTopK computes the reference answer from the complete closed set:
// supports of the top k closed patterns with ≥ minLen items.
func oracleTopK(t *testing.T, d *dataset.Dataset, k, minLen int) []int {
	t.Helper()
	closed, err := engine.Get(charm.Name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := closed.Mine(context.Background(), d, engine.Options{MinCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sups []int
	for _, p := range rep.Patterns {
		if len(p.Items) >= minLen {
			sups = append(sups, p.Support())
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sups)))
	if len(sups) > k {
		sups = sups[:k]
	}
	return sups
}

func TestTopKMatchesOracleRandom(t *testing.T) {
	r := rng.New(909)
	for trial := 0; trial < 20; trial++ {
		d := datagen.Random(r.Split(), 10+r.Intn(25), 4+r.Intn(7), 0.35+r.Float64()*0.3)
		k := 1 + r.Intn(8)
		minLen := 1 + r.Intn(3)
		res := mineOpts(context.Background(), d, Options{K: k, MinLength: minLen})
		var got []int
		for _, p := range res.Patterns {
			if len(p.Items) < minLen {
				t.Fatalf("trial %d: pattern %v below min length", trial, p.Items)
			}
			if !charm.IsClosed(d, p.Items) {
				t.Fatalf("trial %d: pattern %v not closed", trial, p.Items)
			}
			got = append(got, p.Support())
		}
		want := oracleTopK(t, d, k, minLen)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d patterns, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: support vector %v, want %v", trial, got, want)
			}
		}
	}
}

func TestThresholdRaising(t *testing.T) {
	// On a dataset with many distinct supports, the final internal
	// threshold must equal the k-th best support.
	r := rng.New(910)
	d := datagen.Random(r, 50, 8, 0.4)
	res := mineOpts(context.Background(), d, Options{K: 5, MinLength: 1})
	if len(res.Patterns) == 5 {
		if res.MinCount != res.Patterns[4].Support() {
			t.Fatalf("final threshold %d != 5th best support %d",
				res.MinCount, res.Patterns[4].Support())
		}
	}
	if res.Visited == 0 {
		t.Fatal("no nodes visited")
	}
}

func TestFewerThanKExist(t *testing.T) {
	d := dataset.MustNew([][]int{{0, 1}, {0, 1}})
	res := mineOpts(context.Background(), d, Options{K: 10, MinLength: 1})
	if len(res.Patterns) != 1 { // only closed set is (0 1)
		t.Fatalf("got %d patterns, want 1", len(res.Patterns))
	}
}

func TestMinLengthExcludesEverything(t *testing.T) {
	d := dataset.MustNew([][]int{{0}, {1}})
	res := mineOpts(context.Background(), d, Options{K: 3, MinLength: 5})
	if len(res.Patterns) != 0 {
		t.Fatalf("impossible min length yielded %v", res.Patterns)
	}
}

func TestResultsSortedBySupport(t *testing.T) {
	r := rng.New(911)
	d := datagen.Random(r, 60, 9, 0.4)
	res := mineOpts(context.Background(), d, Options{K: 10, MinLength: 1})
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i].Support() > res.Patterns[i-1].Support() {
			t.Fatal("results not sorted by descending support")
		}
	}
}

func TestDegenerate(t *testing.T) {
	if got := mineOpts(context.Background(), dataset.MustNew(nil), Options{K: 3, MinLength: 1}).Patterns; len(got) != 0 {
		t.Fatalf("empty dataset: %v", got)
	}
}

func TestCancellation(t *testing.T) {
	d := datagen.Diag(18)
	res := mineOpts(minertest.CancelAfter(5), d, Options{K: 1000, MinLength: 1})
	if !res.Stopped {
		t.Fatal("cancellation not honored")
	}
}
