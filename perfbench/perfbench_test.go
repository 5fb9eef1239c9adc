package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"tafpga/internal/jobs"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, command runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, printed %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

// TestSpecStreamSeeded: the same seed gives the same stream, another seed
// another one, every block of ten holds taload's default mix and opens
// with its min-energy search, and each design takes a third of every
// three blocks.
func TestSpecStreamSeeded(t *testing.T) {
	a, b := specStream(7, 60), specStream(7, 60)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(a, specStream(8, 60)) {
		t.Fatal("different seeds, same stream")
	}
	for lo := 0; lo < len(a); lo += 10 {
		count := map[jobs.Kind]int{}
		for _, s := range a[lo : lo+10] {
			if err := s.Validate(); err != nil {
				t.Fatalf("spec %+v: %v", s, err)
			}
			count[s.Kind]++
		}
		if count[jobs.KindMinEnergy] != 1 || count[jobs.KindSweep] != 2 || count[jobs.KindGuardband] != 7 {
			t.Fatalf("block at %d has mix %v", lo, count)
		}
		if a[lo].Kind != jobs.KindMinEnergy {
			t.Fatalf("block at %d opens with %s", lo, a[lo].Kind)
		}
	}
	for lo := 0; lo < len(a); lo += 30 {
		designs := map[string]int{}
		for _, s := range a[lo : lo+30] {
			designs[s.Benchmark]++
		}
		for _, d := range servePool {
			if designs[d] != 10 {
				t.Fatalf("arrivals %d-%d hold designs %v", lo, lo+29, designs)
			}
		}
	}
}

func TestUnionWithin(t *testing.T) {
	iv := [][2]time.Duration{{5, 8}, {0, 3}, {2, 4}, {7, 12}}
	if got := unionWithin(iv, 1, 10); got != 3+5 {
		t.Fatalf("union = %d, want 8", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

// runTwice runs a workload untraced and traced and requires both to pass
// their checks with byte-identical outputs.
func runTwice(t *testing.T, run func(runConfig) (*outcome, error), cfg runConfig) string {
	t.Helper()
	var digests [2]string
	for i, traced := range []bool{false, true} {
		cfg.Trace, cfg.OutDir = traced, t.TempDir()
		o, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.FailedOps) > 0 {
			t.Fatalf("traced=%v: %v", traced, o.FailedOps)
		}
		set := e2eMetrics
		vals := o.E2E
		if traced {
			set, vals = layerMetrics, o.Layer
		}
		for _, m := range set {
			if _, ok := vals[m.Name]; !ok {
				t.Errorf("traced=%v: metric %s missing", traced, m.Name)
			}
		}
		digests[i] = o.Digest
	}
	if digests[0] != digests[1] {
		t.Fatalf("traced replay digest %s != untraced %s", digests[1], digests[0])
	}
	return digests[0]
}

func TestFig6ReplayMatchesDriver(t *testing.T) {
	runTwice(t, runFig6, runConfig{Seed: 1, Seconds: 1, Designs: []string{"sha", "or1200", "stereovision3"}})
}

func TestEnergyReplayMatchesDriver(t *testing.T) {
	runTwice(t, runEnergy, runConfig{Seed: 1, Seconds: 1, Designs: []string{"stereovision3", "mkPktMerge"}})
}

// TestServeSeeded: one seed twice gives the same outputs, and a held-out
// seed runs clean.
func TestServeSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("serving windows take seconds")
	}
	a := runTwice(t, runServe, runConfig{Seed: 11, Seconds: 2})
	if b := runTwice(t, runServe, runConfig{Seed: 11, Seconds: 2}); a != b {
		t.Fatalf("seed 11 gave digests %s and %s", a, b)
	}
	runTwice(t, runServe, runConfig{Seed: 90210, Seconds: 2})
}
