package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/itemset"
	"repro/internal/quality"
)

// serve-stream and the traced runs repeat their set-up for at least
// setupBudget and at least minSetupReps times; an untraced library run
// spreads at least minSetupReps between its jobs. setup_s is the median
// repetition.
const (
	setupBudget  = time.Second
	minSetupReps = 15
)

// repeatSetup runs rep, which times one set-up and returns its length,
// until both setupBudget and minSetupReps are reached. Each repetition
// starts after a full GC, so that none pays for an earlier one's garbage.
func repeatSetup(rep func(i int) (time.Duration, error)) (samples, error) {
	var s samples
	begin := time.Now()
	for i := 0; i < minSetupReps || time.Since(begin) < setupBudget; i++ {
		runtime.GC()
		d, err := rep(i)
		if err != nil {
			return nil, err
		}
		s.addDur(d)
	}
	return s, nil
}

// libWorkload is one library workload: generated FIMI bytes mined by one
// registry algorithm, checked against reference answers.
type libWorkload struct {
	name      string
	algorithm string
	opts      engine.Options // Parallelism is set per job
	// inputs is how many datasets one run generates and cycles its jobs
	// over. Job time varies with the generated data, so a run pools
	// several datasets to keep its medians steady from seed to seed.
	inputs int
	// data generates one dataset's input bytes and the planted colossal
	// patterns recall is measured against: Replace's three size-44 paths,
	// Microarray's nested chain of blocks as cumulative unions.
	data func(seed uint64) (fimi []byte, planted []itemset.Itemset)
	// reference mines the complete pattern set Δ is measured against;
	// nil when the workload's own (exact) report is that set.
	reference func(ctx context.Context, d *dataset.Dataset, p int) ([]itemset.Itemset, error)
}

func fusionReplace(tiny bool) libWorkload {
	return libWorkload{
		name:      "fusion-replace",
		algorithm: "fusion",
		opts:      engine.Options{MinSupport: 0.03, K: 100, Tau: 0.5, InitPoolMaxSize: 3},
		inputs:    inputsFor(tiny, 6),
		data:      replaceData(tiny),
		reference: func(ctx context.Context, d *dataset.Dataset, p int) ([]itemset.Itemset, error) {
			return mineItemsets(ctx, d, "closed", engine.Options{MinSupport: 0.03, Parallelism: p})
		},
	}
}

func fusionMicroarray(tiny bool) libWorkload {
	refSize := 70
	if tiny {
		refSize = 30
	}
	return libWorkload{
		name:      "fusion-microarray",
		algorithm: "fusion",
		opts:      engine.Options{MinCount: 25, K: 100, Tau: 0.5, InitPoolMaxSize: 2},
		inputs:    inputsFor(tiny, 4),
		data: func(seed uint64) ([]byte, []itemset.Itemset) {
			cfg := datagen.DefaultMicroarrayConfig()
			if tiny {
				cfg.RowLen, cfg.NumItems, cfg.NumBlocks, cfg.NoiseItems = 200, 500, 4, 40
				cfg.ChainSizes = []int{12, 10, 8, 6, 4}
			}
			d, blocks := datagen.MicroarrayWith(cfg, seed)
			return fimiBytes(d), chainUnions(blocks[:len(cfg.ChainSizes)])
		},
		reference: func(ctx context.Context, d *dataset.Dataset, p int) ([]itemset.Itemset, error) {
			return mineItemsets(ctx, d, "closedrows", engine.Options{MinCount: 30, MinSize: refSize, Parallelism: p})
		},
	}
}

func closedReplace(tiny bool) libWorkload {
	return libWorkload{
		name:      "closed-replace",
		algorithm: "closed",
		opts:      engine.Options{MinSupport: 0.03},
		inputs:    inputsFor(tiny, 24),
		data:      replaceData(tiny),
	}
}

func inputsFor(tiny bool, n int) int {
	if tiny {
		return 2
	}
	return n
}

// inputSeed is the generator seed of a run's i-th dataset: runs with
// different seeds never share a dataset.
func inputSeed(seed uint64, inputs, i int) uint64 { return seed*uint64(inputs) + uint64(i) }

// replaceData generates the Replace simulator (the paper's program-trace
// data set); tiny keeps its planted structure at a seventh of the rows.
func replaceData(tiny bool) func(seed uint64) ([]byte, []itemset.Itemset) {
	return func(seed uint64) ([]byte, []itemset.Itemset) {
		cfg := datagen.DefaultReplaceConfig()
		if tiny {
			cfg.NumTxns, cfg.PerPath = 630, 32
		}
		d, planted := datagen.ReplaceWith(cfg, seed)
		return fimiBytes(d), planted
	}
}

// chainUnions turns Microarray's nested chain blocks into the closed
// patterns they plant: c1, c1∪c2, …, c1∪…∪ck.
func chainUnions(chain []datagen.Block) []itemset.Itemset {
	var acc []int
	out := make([]itemset.Itemset, len(chain))
	for i, b := range chain {
		acc = append(acc, b.Items...)
		out[i] = itemset.Canonical(append([]int(nil), acc...))
	}
	return out
}

func fimiBytes(d *dataset.Dataset) []byte {
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		panic("perfbench: writing to a bytes.Buffer failed: " + err.Error())
	}
	return buf.Bytes()
}

func mineItemsets(ctx context.Context, d *dataset.Dataset, algorithm string, opts engine.Options) ([]itemset.Itemset, error) {
	alg, err := engine.Get(algorithm)
	if err != nil {
		return nil, err
	}
	rep, err := alg.Mine(ctx, d, opts)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", algorithm, err)
	}
	return dataset.Itemsets(rep.Patterns), nil
}

// input is one generated dataset of a run and its reference answer.
type input struct {
	fimi    []byte
	planted []itemset.Itemset
	d       *dataset.Dataset
	refHash string // ReportHash of the untimed p=1 run
}

// libRun is the state shared by the untraced and traced library runs.
type libRun struct {
	cfg    config
	w      libWorkload
	alg    engine.Algorithm
	inputs []*input
	o      *outcome
}

// job runs one timed job on in — Mine then ReportHash — at parallelism
// p and checks its hash against the reference. It returns the job's wall
// time, its heap allocation and the report.
func (r *libRun) job(ctx context.Context, in *input, p int, obs engine.Observer) (time.Duration, uint64, *engine.Report) {
	opts := r.w.opts
	opts.Parallelism, opts.Observer = p, obs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := r.alg.Mine(ctx, in.d, opts)
	var hash string
	if err == nil {
		hash = engine.ReportHash(rep)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	r.o.attempted++
	switch {
	case err != nil:
		r.o.fail("job: %v", err)
	case hash != in.refHash:
		r.o.fail("job at p=%d: report hash %s, reference %s", p, hash, in.refHash)
	}
	return elapsed, after.TotalAlloc - before.TotalAlloc, rep
}

// runLibrary measures one library workload: per input an untimed p=1
// reference run, whose hash every timed job on that input must match and
// whose supports are recounted, and the quality reference; then a fixed
// number of rounds of one job per input at p = nproc, with set-up
// (ingesting every input) repeated between them. Only the traced run
// spends cfg.seconds.
func runLibrary(cfg config, w libWorkload) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	alg, err := engine.Get(w.algorithm)
	if err != nil {
		return nil, err
	}
	r := &libRun{cfg: cfg, w: w, alg: alg, o: o}
	inputBytes := 0
	for i := 0; i < w.inputs; i++ {
		fimi, planted := w.data(inputSeed(cfg.seed, w.inputs, i))
		r.inputs = append(r.inputs, &input{fimi: fimi, planted: planted})
		inputBytes += len(fimi)
	}

	// ingestAll times one set-up: every input ingested. The first call's
	// datasets are the ones the run mines, warmed by the reference runs;
	// later calls only repeat the work.
	ingestAll := func(int) (time.Duration, error) {
		start := time.Now()
		for _, in := range r.inputs {
			res, err := ingest.FromBytes(w.name+".dat", in.fimi, ingest.Options{})
			if err != nil {
				return 0, fmt.Errorf("ingest: %w", err)
			}
			if in.d == nil {
				in.d = res.Dataset
			}
		}
		return time.Since(start), nil
	}
	// The first ingest is untimed: the reference runs need the datasets,
	// and it warms the heap.
	if _, err := ingestAll(0); err != nil {
		return nil, err
	}

	var sc scorer
	hashes := make([]string, len(r.inputs))
	for i, in := range r.inputs {
		refOpts := w.opts
		refOpts.Parallelism = 1
		ref, err := alg.Mine(ctx, in.d, refOpts)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		in.refHash = engine.ReportHash(ref)
		hashes[i] = in.refHash[:12]
		o.attempted++
		checkReport(o, in.d, ref)
		var q []itemset.Itemset // nil: the report is exact, so Δ is 0
		if w.reference != nil {
			if q, err = w.reference(ctx, in.d, nproc); err != nil {
				return nil, err
			}
		}
		sc.add(in.d, refOpts.ResolveMinCount(in.d), ref, q, in.planted)
	}
	sc.set(o)
	o.info["inputs"] = map[string]any{"datasets": len(r.inputs), "bytes": inputBytes,
		"rows": r.inputs[0].d.Size(), "items": r.inputs[0].d.NumItems(), "report_hashes": hashes}

	if cfg.trace {
		setup, err := repeatSetup(ingestAll)
		if err != nil {
			return nil, err
		}
		return o, r.traced(ctx, setup, inputBytes)
	}

	// The fewest whole rounds over the inputs that put tailBeyond jobs
	// both above and below job_s_tail. The job count is fixed, so that
	// job_s_tail is the same percentile however fast the host or the
	// commit is, and whole rounds weigh every dataset the same.
	rounds := (2*tailBeyond + len(r.inputs)) / len(r.inputs)
	// Every timed job starts from a collected heap, so that none pays for
	// the garbage of whatever ran before it. Set-up repetitions run
	// between the jobs, evenly spread, at least minSetupReps of them and
	// with their GCs a tenth of the jobs' time, so that setup_s samples
	// the host over the same stretch as the jobs: timed in one block at
	// the start, it read the host's speed of that one second.
	var times, allocs, setup samples
	var jobTime, setupTime time.Duration
	setupRep := func() error {
		start := time.Now()
		runtime.GC()
		d, err := ingestAll(0)
		if err != nil {
			return err
		}
		setup.addDur(d)
		setupTime += time.Since(start)
		return nil
	}
	o.info["peak_rss_timed_only"] = startPeakRSS()
	jobs := rounds * len(r.inputs)
	for range rounds {
		for _, in := range r.inputs {
			runtime.GC()
			elapsed, alloc, _ := r.job(ctx, in, nproc, nil)
			times.addDur(elapsed)
			allocs.add(float64(alloc) / 1e6)
			jobTime += elapsed
			for len(setup)*jobs < minSetupReps*len(times) || setupTime < jobTime/10 {
				if err := setupRep(); err != nil {
					return nil, err
				}
			}
		}
	}
	o.metrics["peak_rss_mb"] = peakRSSMB()
	o.metrics["setup_s"] = setup.median()
	o.info["setup_reps"] = len(setup)
	o.metrics["job_s_p50"] = times.median()
	o.metrics["job_s_tail"], _, _ = times.tail()
	o.metrics["alloc_mb_per_job"] = allocs.median()
	o.info["job_s_tail"] = times.tailInfo()
	return o, nil
}

// checkReport recounts every reported support against the dataset.
func checkReport(o *outcome, d *dataset.Dataset, rep *engine.Report) {
	for _, p := range rep.Patterns {
		if got := d.SupportCount(p.Items); got != p.Support() {
			o.fail("pattern %v: reported support %d, recounted %d", p.Items, p.Support(), got)
		}
	}
}

// scorer accumulates the answer-quality metrics over a run's inputs:
// quality is 1 − the mean of the paper's Δ of each report against its
// complete set, and recall is the share of the recoverable planted
// colossal patterns — those frequent at the run's threshold — that some
// reported pattern contains (for Replace's size-44 paths only the path
// itself is frequent enough to contain one).
type scorer struct {
	deltas         samples
	found, planted int
}

// add scores rep, mined from d at minCount, against the complete set q
// (nil when rep is itself exact and complete).
func (s *scorer) add(d *dataset.Dataset, minCount int, rep *engine.Report, q, planted []itemset.Itemset) {
	p := dataset.Itemsets(rep.Patterns)
	s.deltas.add(quality.Delta(p, q))
	for _, want := range planted {
		if d.SupportCount(want) < minCount {
			continue // no miner can report it
		}
		s.planted++
		for _, got := range p {
			if want.SubsetOf(got) {
				s.found++
				break
			}
		}
	}
}

func (s *scorer) set(o *outcome) {
	o.metrics["quality"] = 1 - s.deltas.mean()
	o.metrics["recall"] = ratio(float64(s.found), float64(s.planted))
	o.info["quality"] = map[string]any{"deltas": s.deltas, "recall": fmt.Sprintf("%d/%d", s.found, s.planted)}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
