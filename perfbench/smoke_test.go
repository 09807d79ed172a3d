package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	return config{
		workload: workload,
		seed:     seed,
		seconds:  0.3,
		trace:    trace,
		workdir:  t.TempDir(),
		tiny:     true,
	}
}

// TestDeclaredWorkloadsAndMetricsMatch holds BENCHMARK.json and the
// program's workload and metric tables in step.
func TestDeclaredWorkloadsAndMetricsMatch(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	check := func(kind string, decl []declared, prog []struct{ name, unit string }) {
		if len(decl) != len(prog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program %d", kind, len(decl), len(prog))
			return
		}
		for i := range decl {
			if decl[i].Name != prog[i].name || decl[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					decl[i].Name, decl[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs every workload at tiny size, untraced and
// traced, under two seeds: each run must pass its output checks and emit
// exactly the declared metrics with their units, and the second seed
// must change the inputs but not the metric set.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			decl := spec.EndToEnd
			if trace {
				decl = spec.PerLayer
			}
			for _, seed := range []uint64{1, 2} {
				var details bytes.Buffer
				res, err := run(tinyConfig(t, w.Name, seed, trace), &details)
				if err != nil {
					t.Fatalf("%s trace=%v seed=%d: %v", w.Name, trace, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s trace=%v seed=%d: correct=%v failed=%d attempted=%d\n%s",
						w.Name, trace, seed, res.Correct, res.Failed, res.Attempted, details.String())
				}
				if len(res.Metrics) != len(decl) {
					t.Errorf("%s trace=%v seed=%d: %d metrics, want %d", w.Name, trace, seed, len(res.Metrics), len(decl))
				}
				for _, d := range decl {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s trace=%v seed=%d: metric %s = %+v (present %v), want unit %s",
							w.Name, trace, seed, d.Name, m, ok, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s seed=%d: end-to-end metric %s = %v, want > 0", w.Name, seed, d.Name, m.Value)
					}
				}
			}
		}
	}
}

// TestSeedChangesInputs checks that the workload seed reaches the
// generated inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range []libWorkload{fusionReplace(true), fusionMicroarray(true), closedReplace(true)} {
		a, _ := w.data(1)
		b, _ := w.data(2)
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 generate identical inputs", w.name)
		}
		again, _ := w.data(1)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 generates different inputs on a second call", w.name)
		}
	}
}

func TestTail(t *testing.T) {
	var s samples
	for i := 1; i <= 40; i++ {
		s.add(float64(i))
	}
	v, p, n := s.tail()
	if v != 30 || p != 75 || n != 40 {
		t.Errorf("tail of 1..40 = %v at p%v of %d, want 30 at p75 of 40", v, p, n)
	}
	if got := s.median(); got != 20.5 {
		t.Errorf("median of 1..40 = %v, want 20.5", got)
	}
}
