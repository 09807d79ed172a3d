// Command perfbench is the repository's benchmark: it runs one named
// workload against the mining library or an in-process pfserve, checks
// every output against an independent reference, and prints the metrics
// named in BENCHMARK.json.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload fusion-replace --seed 1 --seconds 16 --trace 0
//
// The seed is the dataset generator's seed; the program under test only
// ever sees the generated bytes. With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 a separate traced run
// carries the per-layer metrics. Earlier stdout lines are informational:
// the machine/run fingerprint and per-workload details such as the tail
// percentile and its sample count. The exit code is non-zero when any
// output check fails or the configuration is refused.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "repro/internal/engine/all"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space for the store and profiles
	tiny     bool   // tiny inputs, for the smoke test
}

// Library jobs run at Parallelism = nproc. serve-stream runs
// serverWorkers concurrent jobs at serverJobParallelism each. So no run
// keeps more than nproc goroutines busy mining.
var (
	nproc                = runtime.NumCPU()
	serverWorkers        = min(2, nproc)
	serverJobParallelism = nproc / serverWorkers
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: its operation counts, the
// failures it found (each one a human-readable reason) and its metrics.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]float64
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, info: map[string]any{}}
}

// fail records one failed or mismatched operation.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer list every metric BENCHMARK.json declares, with
// its unit; the smoke test holds the two in step.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_s_p50", "s"},
	{"job_s_tail", "s"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
	{"quality", "ratio"},
	{"recall", "fraction"},
}

var perLayer = []struct{ name, unit string }{
	{"ingest.s", "s"},
	{"ingest.mb_per_s", "MB/s"},
	{"apriori.init_pool_s", "s"},
	{"apriori.init_pool_size", "count"},
	{"core.fuse_s", "s"},
	{"core.iterations", "count"},
	{"core.fuse_s_per_iter", "s"},
	{"core.pool_size_iter1", "count"},
	{"dataset.closure_share", "fraction"},
	{"dataset.closure_us_per_call", "us"},
	{"tidset.share", "fraction"},
	{"itemset.share", "fraction"},
	{"charm.visited", "count"},
	{"charm.patterns", "count"},
	{"engine.speedup_p_nproc", "ratio"},
	{"engine.run_tail_s", "s"},
	{"engine.report_hash_s", "s"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_cpu_share", "fraction"},
	{"server.submit_s_p50", "s"},
	{"server.queue_wait_s_p50", "s"},
	{"server.queue_wait_s_tail", "s"},
	{"server.run_s_p50.fusion", "s"},
	{"server.run_s_p50.closed", "s"},
	{"server.observe_lag_s_p50", "s"},
	{"server.result_fetch_s_p50", "s"},
	{"server.queue_depth_max", "count"},
	{"serve.append_s_p50", "s"},
	{"serve.append_s_tail", "s"},
	{"serve.fresh_s_p50", "s"},
	{"store.save_result_s", "s"},
	{"store.save_blob_s", "s"},
	{"ingest.append_s", "s"},
	{"monitor.warm_run_s_p50", "s"},
	{"monitor.cold_run_s", "s"},
	{"loadgen.late_s_max", "s"},
	{"loadgen.offered_rate", "1/s"},
	{"trace.overhead_frac", "fraction"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"fusion-replace":    func(cfg config) (*outcome, error) { return runLibrary(cfg, fusionReplace(cfg.tiny)) },
	"fusion-microarray": func(cfg config) (*outcome, error) { return runLibrary(cfg, fusionMicroarray(cfg.tiny)) },
	"closed-replace":    func(cfg config) (*outcome, error) { return runLibrary(cfg, closedReplace(cfg.tiny)) },
	"serve-stream":      runServe,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "dataset generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 16, "length of serve-stream's open loop and of a traced run (an untraced library run times a fixed job count)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the server store and profiles")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles its result line, writing the
// fingerprint and the workload's details to w first.
func run(cfg config, w io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	out := bufio.NewWriter(w)
	printJSON(out, map[string]any{"fingerprint": fingerprint(cfg)})
	out.Flush()

	speedBefore := hostSpeed()
	o, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	o.info["host_sha256_mb_per_s"] = []float64{speedBefore, hostSpeed()}

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := &result{Attempted: max(o.attempted, 1), Failed: len(o.failures), Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := o.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Correct = len(o.failures) == 0
	if len(o.failures) > 0 {
		o.info["failures"] = o.failures
	}
	printJSON(out, map[string]any{"details": o.info})
	return res, out.Flush()
}

func printJSON(w *bufio.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"error": %q}`, err.Error()))
	}
	w.Write(b)
	w.WriteByte('\n')
}

// fingerprint records the machine and the run settings every result is
// only comparable under.
func fingerprint(cfg config) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":              cpuModel(),
		"nproc":                  nproc,
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"go_version":             runtime.Version(),
		"commit":                 commit,
		"dirty":                  dirty,
		"workload":               cfg.workload,
		"seed":                   cfg.seed,
		"seconds":                cfg.seconds,
		"trace":                  cfg.trace,
		"parallelism":            nproc,
		"server_workers":         serverWorkers,
		"server_job_parallelism": serverJobParallelism,
	}
}

// hostSpeed runs a fixed kernel (sha256 over 64 KiB) on every CPU at
// once for 100 ms and returns the total throughput. Shared hosts change
// speed by tens of percent over minutes, often on one core only, which a
// single-threaded reading misses while p = nproc jobs feel it; reading
// all cores before and after a workload tells host drift apart from a
// change in the program.
func hostSpeed() float64 {
	var wg sync.WaitGroup
	hashed := make([]int, nproc)
	start := time.Now()
	for w := range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for time.Since(start) < 100*time.Millisecond {
				sha256.Sum256(buf)
				hashed[w] += len(buf)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, b := range hashed {
		total += b
	}
	return float64(total) / 1e6 / time.Since(start).Seconds()
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// startPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS count (VmHWM) at the current RSS, so that peakRSSMB covers
// only what runs after it: the timed jobs, not the untimed reference
// runs before them. It reports false where the kernel does not allow the
// reset; peakRSSMB then covers the whole process.
func startPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the peak resident set size since startPeakRSS, read from
// /proc/self/status; the process's maximum RSS where that is unreadable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
