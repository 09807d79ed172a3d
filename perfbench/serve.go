package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/itemset"
	"repro/internal/server"
)

// serveShape sizes serve-stream: the rows uploaded at set-up, the rows
// per append, the monitor's re-mine threshold, and the open loop's rates.
type serveShape struct {
	datasets                         int // catalog datasets the user jobs cycle over
	baseRows, chunkRows, monitorRows int
	jobRate, appendRate              float64 // per second
}

func shapeFor(cfg config) serveShape {
	shape := serveShape{datasets: 8, baseRows: 3000, chunkRows: 50, monitorRows: 200, jobRate: 1, appendRate: 1}
	if cfg.tiny {
		shape = serveShape{datasets: 2, baseRows: 400, chunkRows: 20, monitorRows: 40, jobRate: 4, appendRate: 4}
	}
	return shape
}

// serveMix is the user jobs' repeating algorithm cycle: two fusion jobs
// for every closed job, so the median job is a fusion job. Each cycle
// runs on one dataset, the next cycle on the next one.
var serveMix = []string{"fusion", "fusion", "closed"}

// window is the open loop's length for at least secs seconds: whole
// passes of the mix over every dataset, so that every dataset and
// algorithm weighs the same in the medians, and at least enough jobs for
// job_s_tail to lie above the median.
func (s serveShape) window(secs float64) (jobs int, d time.Duration) {
	pass := len(serveMix) * s.datasets
	want := max(secs*s.jobRate, 2*tailBeyond+1)
	jobs = pass * int(math.Ceil(want/float64(pass)))
	return jobs, seconds(float64(jobs) / s.jobRate)
}

// streamed is the catalog dataset that receives the appends and carries
// the monitor; the user jobs cycle over every dataset.
const streamed = 0

func datasetName(i int) string { return fmt.Sprintf("replace-%d", i) }

// serveOptions are the user jobs' and the monitor's engine options.
func serveOptions(algorithm string, p int) server.OptionsSpec {
	if algorithm == "closed" {
		return server.OptionsSpec{MinSupport: 0.03, Parallelism: p}
	}
	return server.OptionsSpec{MinSupport: 0.03, K: 100, Tau: 0.5, InitPoolMaxSize: 3, Parallelism: p}
}

// instance is one in-process pfserve on a loopback port with a durable
// store.
type instance struct {
	m      *server.Manager
	srv    *http.Server
	served chan error
	c      *client
	dir    string
}

// startInstance starts a server over a fresh store in dir, uploads each
// dataset's base rows to the catalog and installs the incremental fusion
// monitor on the streamed one: serve-stream's set-up.
func startInstance(dir string, workers, p int, shape serveShape, bases [][]byte) (*instance, error) {
	st, err := server.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := server.NewManager(server.Config{Workers: workers, QueueDepth: 64, Store: st, MaxParallelism: p})
	inst := &instance{m: m, srv: &http.Server{Handler: server.Handler(m)}, served: make(chan error, 1), dir: dir}
	go func() { inst.served <- inst.srv.Serve(ln) }()
	inst.c = newClient("http://"+ln.Addr().String(), nproc)

	for i, base := range bases {
		if status, body, err := inst.c.do(http.MethodPut, "/datasets/"+datasetName(i), base); err != nil || status != http.StatusCreated {
			inst.stop()
			return nil, fmt.Errorf("catalog upload: status %d %s: %v", status, body, err)
		}
	}
	spec, _ := json.Marshal(server.MonitorSpec{
		Algorithm:     "fusion",
		Options:       serveOptions("fusion", p),
		ThresholdRows: shape.monitorRows,
		Incremental:   true,
	})
	if status, body, err := inst.c.do(http.MethodPut, "/datasets/"+datasetName(streamed)+"/monitor", spec); err != nil || status != http.StatusOK {
		inst.stop()
		return nil, fmt.Errorf("monitor install: status %d %s: %v", status, body, err)
	}
	return inst, nil
}

// stop shuts the server down, waits for its goroutines and removes its
// store.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.srv.Shutdown(ctx)
	<-in.served
	in.m.Close()
	in.c.hc.CloseIdleConnections()
	os.RemoveAll(in.dir)
}

// client is the load generator's HTTP client: at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// userJob is one submitted job of the open loop.
type userJob struct {
	algorithm string
	dataset   int
	due       time.Time
	late      time.Duration
	submit    time.Duration
	status    int
	id        string
}

// appendOp is one streamed append.
type appendOp struct {
	chunk      []byte
	due        time.Time
	late       time.Duration
	sent       time.Time
	rtt        time.Duration
	status     int
	monitorJob string
}

// observed is a job's first snapshot in a terminal state and when the
// client received it.
type observed struct {
	snap server.Snapshot
	at   time.Time
}

// poller watches GET /jobs and records when each job was first seen
// terminal.
type poller struct {
	mu   sync.Mutex
	seen map[string]observed
}

func (p *poller) loop(ctx context.Context, c *client, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		status, body, err := c.do(http.MethodGet, "/jobs", nil)
		at := time.Now()
		if err == nil && status == http.StatusOK {
			var list struct {
				Jobs []server.Snapshot `json:"jobs"`
			}
			if json.Unmarshal(body, &list) == nil {
				p.mu.Lock()
				for _, s := range list.Jobs {
					if _, ok := p.seen[s.ID]; !ok && s.State.Terminal() {
						p.seen[s.ID] = observed{snap: s, at: at}
					}
				}
				p.mu.Unlock()
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (p *poller) get(id string) (observed, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o, ok := p.seen[id]
	return o, ok
}

// serveInputs are serve-stream's generated rows and the library's
// answers on them.
type serveInputs struct {
	bases  [][]byte // per dataset, the first baseRows rows, uploaded at set-up
	chunks [][]byte // the streamed dataset's append chunks, in order
	// refHash is, per dataset and algorithm, the ReportHash of a library
	// run on the rows the user jobs mine.
	refHash []map[string]string
}

// chunksFor cuts the append stream: the rows after the base, wrapping
// around to the first row when a long run uses them up.
func chunksFor(rows [][]byte, shape serveShape, n int) [][]byte {
	chunks := make([][]byte, n)
	next := shape.baseRows
	for i := range chunks {
		var b []byte
		for k := 0; k < shape.chunkRows; k++ {
			b = append(b, rows[next%len(rows)]...)
			next++
		}
		chunks[i] = b
	}
	return chunks
}

// runServe measures serve-stream: set-up, repeated, then an open loop of
// user jobs and appends for cfg.seconds, a drain, and the output checks.
func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	shape := shapeFor(cfg)
	p := serverJobParallelism
	in := serveInputs{}
	var sc scorer
	for i := 0; i < shape.datasets; i++ {
		fimi, planted := replaceData(cfg.tiny)(inputSeed(cfg.seed, shape.datasets, i))
		rows := bytes.SplitAfter(fimi, []byte("\n"))
		rows = rows[:len(rows)-1] // the empty tail after the final newline
		in.bases = append(in.bases, bytes.Join(rows[:shape.baseRows], nil))
		if i == streamed {
			_, window := shape.window(cfg.seconds)
			in.chunks = chunksFor(rows, shape, int(shape.appendRate*window.Seconds())+1)
		}
		hashes, err := libraryAnswers(o, &sc, in.bases[i], shape, planted, nproc)
		if err != nil {
			return nil, err
		}
		in.refHash = append(in.refHash, hashes)
	}
	sc.set(o)

	var inst *instance
	setup, err := repeatSetup(func(i int) (time.Duration, error) {
		if inst != nil {
			inst.stop()
		}
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("store-%d-%d", os.Getpid(), i))
		start := time.Now()
		var err error
		inst, err = startInstance(dir, serverWorkers, p, shape, in.bases)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup.median()
	o.info["setup_reps"] = len(setup)

	newLoadgen := func(inst *instance, secs float64, traced bool) *loadgen {
		lg := &loadgen{cfg: cfg, shape: shape, p: p, c: inst.c, in: in, o: o,
			traced: traced, poll: &poller{seen: map[string]observed{}}}
		lg.jobCount, lg.window = shape.window(secs)
		return lg
	}
	if !cfg.trace {
		defer inst.stop()
		return o, newLoadgen(inst, cfg.seconds, false).measure()
	}

	// The traced run measures two halves from the same starting state: an
	// untraced one on the set-up instance, then a traced one on a fresh
	// instance, so that trace.overhead_frac compares like with like.
	plain := newLoadgen(inst, cfg.seconds/2, false)
	err = plain.measure()
	inst.stop()
	if err != nil {
		return nil, err
	}
	inst, err = startInstance(filepath.Join(cfg.workdir, fmt.Sprintf("store-%d-traced", os.Getpid())),
		serverWorkers, p, shape, in.bases)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.stop()
	traced := newLoadgen(inst, cfg.seconds/2, true)
	if err := traced.measure(); err != nil {
		return nil, err
	}
	return o, traced.replays(plain)
}

// loadgen is serve-stream's open-loop generator and its bookkeeping.
type loadgen struct {
	cfg      config
	shape    serveShape
	p        int
	c        *client
	in       serveInputs
	o        *outcome
	poll     *poller
	jobCount int
	window   time.Duration
	traced   bool // profile the window and scrape /metrics

	jobs     []*userJob
	appends  []*appendOp
	late     samples
	jobS     samples // user jobs' due → seen done
	drain    time.Duration
	backlog  int // user jobs not yet done when the window closed
	allocMB  float64
	peakRSS  float64
	gcCycles uint32
	gcCPU    float64
	depthMax float64
	shares   map[string]float64
	served   *engine.Report // a served fusion report, replayed into the store
}

// measure runs the open loop, checks its outputs and sets the metrics.
func (lg *loadgen) measure() error {
	if err := lg.run(); err != nil {
		return err
	}
	if err := lg.check(); err != nil {
		return err
	}
	lg.report()
	return nil
}

// run drives the open loop: every event is dispatched at its due time
// whatever the state of earlier ones, user jobs on their own goroutine
// and appends in order on one appender goroutine. It then drains: waits
// for every job, the monitor's included, to be seen terminal.
func (lg *loadgen) run() error {
	ctx, stopPoll := context.WithCancel(context.Background())
	var pollDone sync.WaitGroup
	pollDone.Add(1)
	go func() { defer pollDone.Done(); lg.poll.loop(ctx, lg.c, 20*time.Millisecond) }()
	defer func() { stopPoll(); pollDone.Wait() }()

	lg.o.info["peak_rss_timed_only"] = startPeakRSS()
	start := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < lg.jobCount; i++ {
		lg.jobs = append(lg.jobs, &userJob{algorithm: serveMix[i%len(serveMix)],
			dataset: i / len(serveMix) % lg.shape.datasets,
			due:     start.Add(seconds(float64(i) / lg.shape.jobRate))})
	}
	for i := 0; (float64(i)+0.5)/lg.shape.appendRate < lg.window.Seconds(); i++ {
		lg.appends = append(lg.appends, &appendOp{chunk: lg.in.chunks[i],
			due: start.Add(seconds((float64(i) + 0.5) / lg.shape.appendRate))})
	}

	var traceStop func() error
	if lg.traced {
		var err error
		if traceStop, err = lg.startTrace(); err != nil {
			return err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPUSeconds()

	appendCh := make(chan *appendOp, len(lg.appends)) // every append fits: dispatch never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for op := range appendCh {
			lg.sendAppend(op)
		}
	}()
	ji, ai := 0, 0
	for ji < len(lg.jobs) || ai < len(lg.appends) {
		if ai == len(lg.appends) || (ji < len(lg.jobs) && lg.jobs[ji].due.Before(lg.appends[ai].due)) {
			j := lg.jobs[ji]
			ji++
			time.Sleep(time.Until(j.due))
			j.late = time.Since(j.due)
			wg.Add(1)
			go func() { defer wg.Done(); lg.submit(j) }()
		} else {
			op := lg.appends[ai]
			ai++
			time.Sleep(time.Until(op.due))
			appendCh <- op
		}
	}
	close(appendCh)
	wg.Wait()
	closed := time.Now()
	for _, j := range lg.jobs {
		if _, ok := lg.poll.get(j.id); !ok {
			lg.backlog++
		}
	}
	if traceStop != nil {
		if err := traceStop(); err != nil {
			return err
		}
	}

	ids := []string{}
	for _, j := range lg.jobs {
		if j.id != "" {
			ids = append(ids, j.id)
		}
	}
	for _, op := range lg.appends {
		if op.monitorJob != "" {
			ids = append(ids, op.monitorJob)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for _, id := range ids {
		for {
			if _, ok := lg.poll.get(id); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s did not finish within the drain deadline", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	lg.drain = time.Since(closed)
	lg.peakRSS = peakRSSMB()
	runtime.ReadMemStats(&after)
	gc1, cpu1 := gcCPUSeconds()
	lg.gcCycles = after.NumGC - before.NumGC
	lg.gcCPU = ratio(gc1-gc0, cpu1-cpu0)
	lg.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	for _, j := range lg.jobs {
		lg.late.addDur(j.late)
	}
	for _, op := range lg.appends {
		lg.late.addDur(op.late)
	}
	return nil
}

func (lg *loadgen) submit(j *userJob) {
	spec, _ := json.Marshal(server.JobSpec{
		Algorithm: j.algorithm,
		Dataset: server.DatasetSpec{Catalog: datasetName(j.dataset),
			Transform: &server.TransformSpec{RowHi: lg.shape.baseRows}},
		Options: serveOptions(j.algorithm, lg.p),
	})
	start := time.Now()
	status, body, err := lg.c.do(http.MethodPost, "/jobs", spec)
	j.submit, j.status = time.Since(start), status
	if err != nil {
		j.status = 0
		return
	}
	var resp struct {
		ID string `json:"id"`
	}
	if status == http.StatusAccepted && json.Unmarshal(body, &resp) == nil {
		j.id = resp.ID
	}
}

func (lg *loadgen) sendAppend(op *appendOp) {
	op.sent = time.Now()
	op.late = op.sent.Sub(op.due)
	status, body, err := lg.c.do(http.MethodPost, "/datasets/"+datasetName(streamed)+"/rows", op.chunk)
	op.rtt, op.status = time.Since(op.sent), status
	if err != nil {
		op.status = 0
		return
	}
	var resp struct {
		MonitorJob string `json:"monitor_job"`
	}
	if status == http.StatusOK && json.Unmarshal(body, &resp) == nil {
		op.monitorJob = resp.MonitorJob
	}
}

// libraryAnswers runs the library on the rows serve-stream's user jobs
// mine from one dataset (its base rows, through the same row-range
// transform the jobs request), recounts every support, scores the fusion
// answer against the closed one, and returns each algorithm's
// ReportHash. It runs at p, while the server's jobs run at the per-job
// parallelism, so a match also checks parallelism invariance.
func libraryAnswers(o *outcome, sc *scorer, base []byte, shape serveShape, planted []itemset.Itemset, p int) (map[string]string, error) {
	res, err := ingest.FromBytes("replace.dat", base, ingest.Options{})
	if err != nil {
		return nil, err
	}
	d, _ := ingest.Apply(res.Dataset, false, ingest.RowRange(0, shape.baseRows))
	reps := map[string]*engine.Report{}
	hashes := map[string]string{}
	for _, algorithm := range []string{"fusion", "closed"} {
		alg, err := engine.Get(algorithm)
		if err != nil {
			return nil, err
		}
		opts := serveOptions(algorithm, p)
		rep, err := alg.Mine(context.Background(), d, engine.Options{MinSupport: opts.MinSupport, K: opts.K,
			Tau: opts.Tau, InitPoolMaxSize: opts.InitPoolMaxSize, Parallelism: opts.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("library reference %s: %w", algorithm, err)
		}
		reps[algorithm], hashes[algorithm] = rep, engine.ReportHash(rep)
		checkReport(o, d, rep)
	}
	minCount := engine.Options{MinSupport: serveOptions("fusion", p).MinSupport}.ResolveMinCount(d)
	sc.add(d, minCount, reps["fusion"], dataset.Itemsets(reps["closed"].Patterns), planted)
	return hashes, nil
}

// check verifies every operation: each job and append was accepted and
// ended done, each user job's served report hashes equal to the library
// run on the same rows, and the streamed dataset's catalog content hash
// after all appends equals a one-shot ingest of the concatenated rows.
func (lg *loadgen) check() error {
	o := lg.o
	var fetch samples
	for _, j := range lg.jobs {
		o.attempted++
		if j.status != http.StatusAccepted {
			o.fail("submit %s: status %d", j.algorithm, j.status)
			continue
		}
		obs, _ := lg.poll.get(j.id)
		if obs.snap.State != server.StateDone {
			o.fail("job %s ended %s: %s", j.id, obs.snap.State, obs.snap.Error)
			continue
		}
		start := time.Now()
		rep, err := lg.fetchReport(j.id)
		fetch.since(start)
		if err != nil {
			o.fail("job %s result: %v", j.id, err)
			continue
		}
		if h, want := engine.ReportHash(rep), lg.in.refHash[j.dataset][j.algorithm]; h != want {
			o.fail("job %s (%s on %s) served hash %s, library %s", j.id, j.algorithm, datasetName(j.dataset), h, want)
			continue
		}
		if j.algorithm == "fusion" {
			lg.served = rep
		}
	}
	o.metrics["server.result_fetch_s_p50"] = fetch.median()

	for _, op := range lg.appends {
		o.attempted++
		if op.status != http.StatusOK {
			o.fail("append: status %d", op.status)
		}
		if op.monitorJob != "" {
			o.attempted++
			if obs, _ := lg.poll.get(op.monitorJob); obs.snap.State != server.StateDone {
				o.fail("monitor job %s ended %s: %s", op.monitorJob, obs.snap.State, obs.snap.Error)
			}
		}
	}

	o.attempted++
	all := append([]byte(nil), lg.in.bases[streamed]...)
	for _, op := range lg.appends {
		all = append(all, op.chunk...)
	}
	want, err := ingest.FromBytes("replace.dat", all, ingest.Options{})
	if err != nil {
		return err
	}
	status, body, err := lg.c.do(http.MethodGet, "/datasets/"+datasetName(streamed), nil)
	var entry server.DatasetEntry
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &entry)
	}
	switch {
	case err != nil || status != http.StatusOK:
		o.fail("catalog entry: status %d: %v", status, err)
	case entry.SHA256 != want.SHA256 || entry.Rows != want.Dataset.Size():
		o.fail("catalog after appends: sha256 %s rows %d, one-shot ingest sha256 %s rows %d",
			entry.SHA256, entry.Rows, want.SHA256, want.Dataset.Size())
	}
	o.info["catalog_rows"] = entry.Rows
	return nil
}

// fetchReport reads a job's result and rebuilds the Report it encodes,
// so that its ReportHash can be compared with a library run's.
func (lg *loadgen) fetchReport(id string) (*engine.Report, error) {
	status, body, err := lg.c.do(http.MethodGet, "/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, body)
	}
	var w engine.WireReport
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	return w.FromWire(), nil
}

// report sets serve-stream's end-to-end metrics and details.
func (lg *loadgen) report() {
	o := lg.o
	var appendS, fresh samples
	for _, j := range lg.jobs {
		if obs, ok := lg.poll.get(j.id); ok && obs.snap.State == server.StateDone {
			lg.jobS.addDur(obs.at.Sub(j.due))
		}
	}
	jobS := lg.jobS
	for _, op := range lg.appends {
		appendS.addDur(op.rtt)
		if obs, ok := lg.poll.get(op.monitorJob); ok && op.monitorJob != "" {
			fresh.addDur(obs.at.Sub(op.sent))
		}
	}
	o.metrics["job_s_p50"] = jobS.median()
	o.metrics["job_s_tail"], _, _ = jobS.tail()
	o.metrics["alloc_mb_per_job"] = lg.allocMB / float64(max(len(jobS), 1))
	o.metrics["peak_rss_mb"] = lg.peakRSS
	o.metrics["serve.append_s_p50"] = appendS.median()
	o.metrics["serve.append_s_tail"], _, _ = appendS.tail()
	o.metrics["serve.fresh_s_p50"] = fresh.median()
	o.metrics["loadgen.late_s_max"] = lg.late.max()
	o.metrics["loadgen.offered_rate"] = float64(len(lg.jobs)) / lg.window.Seconds()
	o.info["job_s_tail"] = jobS.tailInfo()
	o.info["append_s"] = map[string]any{"p50": appendS.median(), "tail": appendS.tailInfo()}
	o.info["fresh_s_p50"] = fresh.median()
	o.info["monitor_runs"] = len(fresh)
	o.info["loadgen"] = map[string]any{"jobs": len(lg.jobs), "appends": len(lg.appends),
		"job_rate": lg.shape.jobRate, "append_rate": lg.shape.appendRate, "late_s_max": lg.late.max(),
		"mix": serveMix, "closed_loop": false, "backlog_at_close": lg.backlog, "drain_s": lg.drain.Seconds()}
}

// startTrace starts the CPU profile and a /metrics scraper; the
// returned stop ends both, keeping the CPU shares and the deepest queue
// seen.
func (lg *loadgen) startTrace() (stop func() error, err error) {
	stopProfile, err := startProfile(filepath.Join(lg.cfg.workdir, fmt.Sprintf("cpu-serve-%d.pprof", os.Getpid())))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			status, body, err := lg.c.do(http.MethodGet, "/metrics", nil)
			if err == nil && status == http.StatusOK {
				lg.depthMax = max(lg.depthMax, scrapeGauge(body, "pfserve_queue_depth"))
			}
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return func() error {
		cancel()
		wg.Wait()
		shares, err := stopProfile()
		lg.shares = shares
		return err
	}, nil
}

// scrapeGauge reads an unlabeled sample from a Prometheus exposition.
func scrapeGauge(body []byte, name string) float64 {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// replays sets serve-stream's per-layer metrics: the lifecycle split
// from the job snapshots, and the store and append layers timed by
// replaying this run's own reports and chunks through the public Store
// and Appender.
func (lg *loadgen) replays(plain *loadgen) error {
	o := lg.o
	var submit, wait, observeLag samples
	run := map[string]*samples{"fusion": {}, "closed": {}}
	for _, j := range lg.jobs {
		submit.addDur(j.submit)
		obs, ok := lg.poll.get(j.id)
		if !ok || obs.snap.Started == nil || obs.snap.Ended == nil {
			continue
		}
		wait.addDur(obs.snap.Started.Sub(obs.snap.Created))
		run[j.algorithm].addDur(obs.snap.Ended.Sub(*obs.snap.Started))
		observeLag.addDur(obs.at.Sub(*obs.snap.Ended))
	}
	var warm samples
	cold := 0.0
	for _, op := range lg.appends {
		obs, ok := lg.poll.get(op.monitorJob)
		if op.monitorJob == "" || !ok || obs.snap.Started == nil || obs.snap.Ended == nil {
			continue
		}
		d := obs.snap.Ended.Sub(*obs.snap.Started).Seconds()
		if cold == 0 {
			cold = d
		} else {
			warm.add(d)
		}
	}
	o.metrics["server.submit_s_p50"] = submit.median()
	o.metrics["server.queue_wait_s_p50"] = wait.median()
	o.metrics["server.queue_wait_s_tail"], _, _ = wait.tail()
	o.metrics["server.run_s_p50.fusion"] = run["fusion"].median()
	o.metrics["server.run_s_p50.closed"] = run["closed"].median()
	o.metrics["server.observe_lag_s_p50"] = observeLag.median()
	o.metrics["server.queue_depth_max"] = lg.depthMax
	o.metrics["monitor.cold_run_s"] = cold
	o.metrics["monitor.warm_run_s_p50"] = warm.median()
	o.metrics["trace.overhead_frac"] = lg.jobS.median()/plain.jobS.median() - 1
	o.metrics["runtime.gc_cycles_per_job"] = float64(lg.gcCycles) / float64(max(len(lg.jobs), 1))
	o.metrics["runtime.gc_cpu_share"] = lg.gcCPU
	for k, v := range lg.shares {
		o.metrics[k] = v
	}

	var ingestS samples
	for range replayReps {
		start := time.Now()
		if _, err := ingest.FromBytes("replace.dat", lg.in.bases[streamed], ingest.Options{}); err != nil {
			return err
		}
		ingestS.since(start)
	}
	o.metrics["ingest.s"] = ingestS.median()
	o.metrics["ingest.mb_per_s"] = float64(len(lg.in.bases[streamed])) / 1e6 / ingestS.median()

	dir := filepath.Join(lg.cfg.workdir, fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := server.OpenStore(dir)
	if err != nil {
		return err
	}
	var saveResult, saveBlob, appendS samples
	rep := lg.served
	if rep == nil {
		return errors.New("no served fusion report to replay")
	}
	for i := range replayReps {
		start := time.Now()
		if err := st.SaveResult(fmt.Sprintf("replay-%d", i), rep); err != nil {
			return err
		}
		saveResult.since(start)
	}
	app, err := ingest.NewAppender(ingest.BytesSource("replace.dat", lg.in.bases[streamed]), ingest.Options{})
	if err != nil {
		return err
	}
	for _, op := range lg.appends {
		sum := sha256.Sum256(op.chunk)
		start := time.Now()
		if err := st.SaveBlob(hex.EncodeToString(sum[:]), op.chunk); err != nil {
			return err
		}
		saveBlob.since(start)
		start = time.Now()
		if _, err := app.Append(op.chunk); err != nil {
			return err
		}
		appendS.since(start)
	}
	o.metrics["store.save_result_s"] = saveResult.median()
	o.metrics["store.save_blob_s"] = saveBlob.median()
	o.metrics["ingest.append_s"] = appendS.median()
	zeroUnmeasured(o)
	o.info["trace"] = map[string]any{"plain_jobs": len(plain.jobS), "traced_jobs": len(lg.jobS),
		"plain_job_s_p50": plain.jobS.median(), "monitor_warm_runs": len(warm)}
	return nil
}
