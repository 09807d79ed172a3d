package seq_test

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/seq"
	_ "repro/internal/seqfusion"
)

// The tests in this file mine sequences with the registered seqfusion
// miner, the one sequence miner, and check what it reports against this
// package's substrate: Sequence equality and Dataset.TIDSet recounts.

// planted builds numSeqs rows; frac of them embed the colossal
// subsequence (with 0-2 noise events interleaved before each of its
// events), the rest are 3-12 noise events. Noise events lie above the
// colossal sequence's last event. It returns the engine dataset and the
// same rows as a seq.Dataset.
func planted(t *testing.T, seed uint64, numSeqs int, colossal seq.Sequence, frac float64, alphabet int) (*dataset.Dataset, *seq.Dataset) {
	t.Helper()
	r := rng.New(seed)
	noise := colossal[len(colossal)-1] + 1
	rows := make([][]int, numSeqs)
	seqs := make([]seq.Sequence, numSeqs)
	for i := range rows {
		var s []int
		if r.Float64() < frac {
			for _, e := range colossal {
				for k := r.Intn(3); k > 0; k-- {
					s = append(s, noise+r.Intn(alphabet))
				}
				s = append(s, e)
			}
		} else {
			for j := 3 + r.Intn(10); j > 0; j-- {
				s = append(s, noise+r.Intn(alphabet))
			}
		}
		rows[i], seqs[i] = s, s
	}
	d, err := dataset.NewSequences(rows)
	if err != nil {
		t.Fatal(err)
	}
	return d, seq.MustNewDataset(seqs)
}

func mine(t *testing.T, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	t.Helper()
	alg, err := engine.Get("seqfusion")
	if err != nil {
		t.Fatal(err)
	}
	return alg.Mine(context.Background(), d, opts)
}

func TestMineRecoversPlantedColossalSequence(t *testing.T) {
	colossal := seq.Sequence{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	d, _ := planted(t, 5, 120, colossal, 0.4, 30)
	opts := engine.Options{MinCount: 30, K: 10, Seed: 1}
	rep, err := mine(t, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Patterns {
		if seq.Sequence(p.Items).Equal(colossal) {
			found = true
			if p.Support() < 30 {
				t.Fatalf("colossal support %d below threshold", p.Support())
			}
		}
	}
	if !found {
		t.Fatalf("colossal subsequence not recovered; got %v", rep.Patterns)
	}
	if len(rep.Patterns) > opts.K {
		t.Fatalf("result exceeds K: %d", len(rep.Patterns))
	}
}

func TestMineResultsAreFrequentSubsequences(t *testing.T) {
	colossal := seq.Sequence{0, 1, 2, 3, 4, 5, 6, 7}
	d, sd := planted(t, 6, 80, colossal, 0.5, 20)
	rep, err := mine(t, d, engine.Options{MinCount: 20, K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Patterns {
		s := seq.Sequence(p.Items)
		tids := sd.TIDSet(s)
		if tids.Count() != p.Support() {
			t.Fatalf("pattern %v reports support %d, recounts to %d", s, p.Support(), tids.Count())
		}
		if tids.Count() < 20 {
			t.Fatalf("infrequent pattern %v (support %d)", s, tids.Count())
		}
		found = found || s.Equal(colossal)
	}
	if !found {
		t.Fatalf("planted %v not recovered; got %v", colossal, rep.Patterns)
	}
}

func TestMineValidation(t *testing.T) {
	d, err := dataset.NewSequences([][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mine(t, d, engine.Options{MinCount: 1, K: -1}); err == nil {
		t.Error("K=-1 accepted")
	}
	if _, err := mine(t, d, engine.Options{MinCount: 1, K: 1, Tau: -0.5}); err == nil {
		t.Error("Tau=-0.5 accepted")
	}
}

func TestMineDeterministic(t *testing.T) {
	colossal := seq.Sequence{0, 1, 2, 3, 4}
	d, _ := planted(t, 7, 60, colossal, 0.5, 15)
	run := func() string {
		rep, err := mine(t, d, engine.Options{MinCount: 15, K: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, p := range rep.Patterns {
			out += seq.Sequence(p.Items).Key() + ";"
		}
		return out
	}
	first := run()
	if first != run() {
		t.Fatal("mining not deterministic for a fixed seed")
	}
	if first == "" {
		t.Fatal("planted fixture mined nothing")
	}
}
