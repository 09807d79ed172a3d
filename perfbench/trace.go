package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// replayReps is how many times the traced run replays a public function
// on the run's own data; the per-layer metric is the median.
const replayReps = 9

// stamper is the traced run's Observer: it stamps every engine event
// with the time it arrived. Observer calls are serialized by the engine.
type stamper struct {
	events []stampedEvent
}

type stampedEvent struct {
	engine.Event
	at time.Time
}

func (s *stamper) observe(e engine.Event) {
	e.Pool = nil
	s.events = append(s.events, stampedEvent{Event: e, at: time.Now()})
}

// phases derives the per-layer timings of one traced job that started
// at start and whose Mine returned at end.
type phases struct {
	initPool, fuse, runTail time.Duration
	poolIter1               int
}

func (s *stamper) phases(start, end time.Time) phases {
	var ph phases
	var initAt, lastIter, lastMiner time.Time
	for _, e := range s.events {
		switch e.Phase {
		case engine.PhaseInitPool:
			initAt = e.at
		case engine.PhaseIteration:
			if lastIter.IsZero() {
				ph.poolIter1 = e.PoolSize
			}
			lastIter = e.at
		}
		if e.Phase != engine.PhaseDone {
			lastMiner = e.at
		}
	}
	if !initAt.IsZero() {
		ph.initPool = initAt.Sub(start)
		if !lastIter.IsZero() {
			ph.fuse = lastIter.Sub(initAt)
		}
	}
	if !lastMiner.IsZero() {
		ph.runTail = end.Sub(lastMiner)
	}
	return ph
}

// traced is the per-layer run. It spends cfg.seconds in three segments:
// an untraced and a stamped job on each input in turn (tracing overhead,
// phase split, GC), stamped jobs under a CPU profile (package and
// Closure shares), and p=1 jobs (parallel speed-up against the untraced
// jobs on the same input). Replays of public functions follow, untimed
// against the budget.
func (r *libRun) traced(ctx context.Context, setup samples, inputBytes int) error {
	o, cfg := r.o, r.cfg
	o.metrics["ingest.s"] = setup.median() / float64(len(r.inputs))
	o.metrics["ingest.mb_per_s"] = float64(inputBytes) / 1e6 / setup.median()

	budget := seconds(cfg.seconds)
	var plain, stamped, initPool, fuse, fusePerIter, runTail samples
	var iterations, poolIter1 samples
	plainBy := make([]samples, len(r.inputs))
	var gcBefore, gcAfter runtime.MemStats
	gcCPU0, cpu0 := gcCPUSeconds()
	runtime.ReadMemStats(&gcBefore)
	jobs := 0
	var last *engine.Report
	var lastInput *input
	deadline := time.Now().Add(budget * 40 / 100)
	for i := 0; time.Now().Before(deadline) || i == 0; i++ {
		in := r.inputs[i%len(r.inputs)]
		elapsed, _, _ := r.job(ctx, in, nproc, nil)
		plain.addDur(elapsed)
		plainBy[i%len(r.inputs)].addDur(elapsed)

		st := &stamper{}
		start := time.Now()
		elapsed, _, rep := r.job(ctx, in, nproc, st.observe)
		stamped.addDur(elapsed)
		jobs += 2
		last, lastInput = rep, in
		ph := st.phases(start, start.Add(elapsed))
		runTail.addDur(ph.runTail)
		if r.w.algorithm == "fusion" {
			initPool.addDur(ph.initPool)
			fuse.addDur(ph.fuse)
			poolIter1.add(float64(ph.poolIter1))
			iterations.add(float64(rep.Iterations))
			fusePerIter.add(ph.fuse.Seconds() / float64(max(rep.Iterations, 1)))
		}
	}
	runtime.ReadMemStats(&gcAfter)
	gcCPU1, cpu1 := gcCPUSeconds()
	o.metrics["trace.overhead_frac"] = stamped.median()/plain.median() - 1
	o.metrics["runtime.gc_cycles_per_job"] = float64(gcAfter.NumGC-gcBefore.NumGC) / float64(jobs)
	o.metrics["runtime.gc_cpu_share"] = ratio(gcCPU1-gcCPU0, cpu1-cpu0)
	o.metrics["engine.run_tail_s"] = runTail.median()
	o.metrics["apriori.init_pool_s"] = initPool.median()
	o.metrics["core.fuse_s"] = fuse.median()
	o.metrics["core.iterations"] = iterations.median()
	o.metrics["core.fuse_s_per_iter"] = fusePerIter.median()
	o.metrics["core.pool_size_iter1"] = poolIter1.median()
	if r.w.algorithm == "fusion" {
		o.metrics["apriori.init_pool_size"] = float64(last.InitPoolSize)
	}
	if r.w.algorithm == "closed" {
		o.metrics["charm.visited"] = float64(last.Visited)
		o.metrics["charm.patterns"] = float64(len(last.Patterns))
	}

	shares, err := r.profileShares(ctx, budget*35/100)
	if err != nil {
		return err
	}
	for k, v := range shares {
		o.metrics[k] = v
	}

	var speedup samples
	deadline = time.Now().Add(budget * 25 / 100)
	for i := 0; time.Now().Before(deadline) || i == 0; i++ {
		elapsed, _, _ := r.job(ctx, r.inputs[i%len(r.inputs)], 1, nil)
		if base := plainBy[i%len(r.inputs)].median(); base > 0 {
			speedup.add(elapsed.Seconds() / base)
		}
	}
	o.metrics["engine.speedup_p_nproc"] = speedup.median()

	o.metrics["dataset.closure_us_per_call"] = closureReplay(lastInput.d, last)
	var hashing samples
	for range replayReps {
		start := time.Now()
		engine.ReportHash(last)
		hashing.since(start)
	}
	o.metrics["engine.report_hash_s"] = hashing.median()
	zeroUnmeasured(o)
	o.info["trace"] = map[string]any{"plain_jobs": len(plain), "stamped_jobs": len(stamped), "p1_jobs": len(speedup)}
	return nil
}

// profileShares runs stamped jobs, cycling over the inputs, under a CPU
// profile for d and returns the cumulative CPU shares the per-layer
// metrics name.
func (r *libRun) profileShares(ctx context.Context, d time.Duration) (map[string]float64, error) {
	path := filepath.Join(r.cfg.workdir, fmt.Sprintf("cpu-%s-%d.pprof", r.w.name, os.Getpid()))
	stop, err := startProfile(path)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) || i == 0; i++ {
		st := &stamper{}
		r.job(ctx, r.inputs[i%len(r.inputs)], nproc, st.observe)
	}
	return stop()
}

// startProfile starts the process CPU profile into path; the returned
// stop ends it, reads the shares back and removes the file.
func startProfile(path string) (stop func() (map[string]float64, error), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		defer os.Remove(path)
		if err := f.Close(); err != nil {
			return nil, err
		}
		prof, err := readProfile(path)
		if err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
		return map[string]float64{
			"dataset.closure_share": prof.cumShare(func(fn string) bool { return fn == "repro/internal/dataset.(*Closer).Closure" }),
			"tidset.share":          prof.cumShare(inPackage("repro/internal/tidset")),
			"itemset.share":         prof.cumShare(inPackage("repro/internal/itemset")),
		}, nil
	}, nil
}

// closureReplay replays every TID set of rep through a fresh public
// Closer and returns the mean microseconds per Closure call.
func closureReplay(d *dataset.Dataset, rep *engine.Report) float64 {
	c := dataset.NewCloser(d)
	calls := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, p := range rep.Patterns {
			if p.TIDs != nil {
				c.Closure(p.TIDs)
				calls++
			}
		}
		if calls == 0 {
			return 0
		}
	}
	return time.Since(start).Seconds() * 1e6 / float64(calls)
}

// zeroUnmeasured sets to 0 the per-layer metrics of the layers a
// workload never runs: the server, store, monitor and load generator on
// the library workloads; the phase split and speed-up, which need the
// engine's Observer in-process, on serve-stream.
func zeroUnmeasured(o *outcome) {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.metrics[m.name] = 0
		}
	}
}
