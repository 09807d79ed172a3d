package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apriori"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/minertest"
)

// fingerprint captures everything observable about a result: the pattern
// order, each pattern's itemset, and its exact support set.
func fingerprint(t *testing.T, res *Result) []string {
	t.Helper()
	out := make([]string, len(res.Patterns))
	for i, p := range res.Patterns {
		out[i] = fmt.Sprintf("%s|support=%d", p.Items.Key(), p.Support())
	}
	return out
}

// TestParallelismDeterminism is the regression test for the parallel fusion
// engine's core guarantee: the same Config.Seed must produce bit-identical
// Result.Patterns for every Parallelism value, on both the Diag and Replace
// workloads.
func TestParallelismDeterminism(t *testing.T) {
	type workload struct {
		name string
		db   *dataset.Dataset
		cfg  Config
	}
	diagCfg := DefaultConfig(20, 0)
	diagCfg.MinCount = 15
	diagCfg.InitPoolMaxSize = 2
	diagCfg.Seed = 7

	replaceDB, _ := datagen.Replace(1)
	replaceCfg := DefaultConfig(50, 0.03)
	replaceCfg.Seed = 7

	workloads := []workload{
		{"Diag30", datagen.Diag(30), diagCfg},
		{"Replace", replaceDB, replaceCfg},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var want []string
			var wantIters int
			for _, par := range []int{1, 2, 8} {
				cfg := w.cfg
				cfg.Parallelism = par
				res, err := Mine(context.Background(), w.db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprint(t, res)
				if want == nil {
					want, wantIters = got, res.Iterations
					continue
				}
				if res.Iterations != wantIters {
					t.Errorf("Parallelism=%d ran %d iterations, Parallelism=1 ran %d",
						par, res.Iterations, wantIters)
				}
				if len(got) != len(want) {
					t.Fatalf("Parallelism=%d returned %d patterns, Parallelism=1 returned %d",
						par, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("Parallelism=%d diverged at pattern %d:\n  got  %s\n  want %s",
							par, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestParallelismValidation rejects negative Parallelism.
func TestParallelismValidation(t *testing.T) {
	d := datagen.Diag(8)
	cfg := DefaultConfig(5, 0)
	cfg.MinCount = 4
	cfg.Parallelism = -1
	if _, err := Mine(context.Background(), d, cfg); err == nil {
		t.Fatal("Parallelism=-1 accepted")
	}
}

// TestCancellationMidStep pins the per-seed cancellation responsiveness:
// a Canceled that trips after a handful of seeds must abort the run inside
// the first fusion iteration, not after it.
func TestCancellationMidStep(t *testing.T) {
	d := datagen.Diag(30)
	// Pre-mine the initial pool so cancellation bites in fusion, not while
	// phase 1 is still running.
	pool := apriori.MineOpts(context.Background(), d, apriori.Options{MinCount: 15, MaxSize: 2}).Patterns
	for _, par := range []int{1, 4} {
		cfg := DefaultConfig(20, 0)
		cfg.MinCount = 15
		cfg.Parallelism = par
		res, err := MineFromPool(minertest.CancelAfter(3), d, pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Errorf("Parallelism=%d: canceled run not reported as stopped", par)
		}
		if res.Iterations != 0 {
			t.Errorf("Parallelism=%d: cancellation after 3 seeds finished %d full iterations",
				par, res.Iterations)
		}
	}
}
