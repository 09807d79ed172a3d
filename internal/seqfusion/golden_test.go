package seqfusion_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/seq"
	_ "repro/internal/seqfusion"
)

// goldenOpts are the pinned options of the Replace-sequences regression:
// the paper's σ = 0.03 on 4,395 rows (MinCount 132), a 12-slot budget,
// and the default τ and seed.
func goldenOpts() engine.Options {
	return engine.Options{MinCount: 132, K: 12, Seed: 1}
}

// TestReplaceSequencesGolden is the miner's regression anchor: on the
// Replace fixture read as sequences (the same fixture internal/seq's
// fold goldens are pinned on), the full Report — patterns, order,
// supports, counters, warnings, quality — is pinned by its canonical
// sha256. Any change to the trajectory schedule, the ball gating, the
// fold kernel, the RNG streams or the merge invalidates the hash and
// must be a conscious re-pin.
func TestReplaceSequencesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("Replace fixture generation is slow")
	}
	rows, planted := datagen.ReplaceSequences(1)
	d, err := dataset.NewSequences(rows)
	if err != nil {
		t.Fatal(err)
	}

	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := alg.Mine(context.Background(), d, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped {
		t.Fatal("un-canceled golden run reported Stopped")
	}

	// Colossal recovery: every planted size-44 execution path must be
	// approximated by a mined pattern that is a ≥30-event subsequence of
	// it (isolating the exact 44-path at support 147 from the planted
	// skip-variant population is not reachable from a static 1-/2-gram
	// pool — the variant closed patterns of sizes 38–43 are the dominant
	// τ-cores, exactly the regime Figure 8 sweeps), and the largest mined
	// pattern must itself be in the colossal regime.
	for i, p := range planted {
		ps := seq.Sequence(p)
		best := 0
		for _, pat := range rep.Patterns {
			if s := seq.Sequence(pat.Items); s.IsSubsequenceOf(ps) && len(s) > best {
				best = len(s)
			}
		}
		if best < 30 {
			t.Errorf("planted path %d: longest recovered subsequence = %d events, want >= 30", i, best)
		}
	}
	max := 0
	for _, pat := range rep.Patterns {
		if len(pat.Items) > max {
			max = len(pat.Items)
		}
	}
	if max < 35 {
		t.Errorf("largest mined pattern has %d events, want >= 35 (colossal regime)", max)
	}

	if rep.Quality == nil {
		t.Fatal("golden run carries no quality estimate")
	}
	const wantDelta = "0.544634377968"
	if got := fmt.Sprintf("%.12f", rep.Quality.Delta); got != wantDelta {
		t.Errorf("quality delta = %s, want %s", got, wantDelta)
	}

	const wantHash = "1f737a34fcac5fd158882485516c19d088c121f1f6769011bb825db048ad1b9e"
	if got := engine.ReportHash(rep); got != wantHash {
		t.Errorf("report hash = %s, want %s", got, wantHash)
	}
}
