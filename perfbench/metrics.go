package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract; BENCHMARK.json at the repository root
// repeats them (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

// e2eMetrics are printed by every untraced run, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"op_p50_s", "s"},
	{"op_p95_s", "s"},
	{"goodput_ops", "ops/s"},
	{"fmax_geomean_mhz", "MHz"},
	{"energy_pj_geomean", "pJ/cycle"},
	{"live_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// layerMetrics are printed by every traced run. A layer the workload does
// not exercise reads 0.
var layerMetrics = []metricDef{
	// Set-up and process, all workloads.
	{"coffe.size_s", "s"},
	{"proc.peak_rss_mb", "MB"},
	{"flow.prebuild_s", "s"},
	// Trace accounting.
	{"trace.wall_s", "s"},
	{"trace.covered_share", "ratio"},
	{"trace.glue_s", "s"},
	// Front end and Algorithm 1 (fig6_cold).
	{"bench.generate_s", "s"},
	{"activity.estimate_s", "s"},
	{"pack.pack_s", "s"},
	{"arch.build_s", "s"},
	{"place.place_s", "s"},
	{"route.graph_s", "s"},
	{"route.route_s", "s"},
	{"route.route_mcml_s", "s"},
	{"sta.compile_s", "s"},
	{"power.model_s", "s"},
	{"hotspot.model_s", "s"},
	{"guardband.run_s", "s"},
	{"pack.clusters", "count"},
	{"route.iters_sum", "count"},
	{"guardband.iters_sum", "count"},
	{"guardband.sta_probes", "count"},
	{"guardband.thermal_solves", "count"},
	{"place.cost_sum", "tiles"},
	{"route.wirelen_tiles_sum", "tiles"},
	{"route.max_occ", "count"},
	// Rail re-characterization (energy_sweep).
	{"flow.rail_s", "s"},
	{"flow.rail_calls", "count"},
	{"flow.rail_distinct", "count"},
	{"coffe.atvdd_calls", "count"},
	{"coffe.atvdd_s", "s"},
	{"coffe.atvdd_p50_s", "s"},
	{"guardband.energy_probes", "count"},
	{"guardband.energy_iters", "count"},
	{"guardband.energy_self_s", "s"},
	// Serving (serve_mixed).
	{"server.submit_p50_s", "s"},
	{"jobs.queue_wait_p50_s", "s"},
	{"jobs.queue_wait_p95_s", "s"},
	{"jobs.run_guardband_p50_s", "s"},
	{"jobs.run_sweep_p50_s", "s"},
	{"jobs.run_minenergy_p50_s", "s"},
	{"serve.gb_p50_s", "s"},
	{"serve.minenergy_p50_s", "s"},
	{"jobs.backlog_max", "count"},
	{"jobs.backlog_end", "count"},
	{"jobs.dedup_ratio", "ratio"},
	{"jobs.refused", "count"},
	{"gen.late_p95_ms", "ms"},
}

// repeatSetup runs a workload's set-up reps times and returns the median
// duration (setup_s). The state the last call leaves behind is the one the
// timed phase uses.
func repeatSetup(reps int, fn func() error) (float64, error) {
	var ds []float64
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// seconds converts durations for quantile.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// geomean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// liveHeapMB is the heap the program still holds after a full collection:
// the state it retains (implementations, caches, memos, job store) once the
// timed phase ends.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// digest hashes canonical output text; equal digests mean byte-identical
// outputs.
func digest(text string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))[:16]
}

// fanOut runs fn over names on GOMAXPROCS workers, claiming names in
// order — the same pool shape as the suite drivers it replays.
func fanOut(names []string, fn func(i int, name string)) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	w := min(runtime.GOMAXPROCS(0), len(names))
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(names) {
					return
				}
				fn(i, names[i])
			}
		}()
	}
	wg.Wait()
}

// timed runs the timed phase and returns its wall and CPU seconds.
func timed(fn func()) (wall, cpu float64) {
	c0, t0 := cpuSeconds(), time.Now()
	fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// layerTimes copies a trace reduction's per-layer self times into the
// outcome under "<layer>_s".
func layerTimes(o *outcome, r reduction, names ...string) {
	for _, n := range names {
		o.Layer[n+"_s"] = r.self[n].Seconds()
	}
}

// zeroLayers fills every per-layer metric the workload did not set with 0:
// the layer did no work in this workload.
func zeroLayers(o *outcome) {
	for _, m := range layerMetrics {
		if _, ok := o.Layer[m.Name]; !ok {
			o.Layer[m.Name] = 0
		}
	}
}

// traceNote states how much of the timed phase the traced calls account
// for: layer self times summed over workers, the glue between calls inside
// an op, and the share of the phase no op span covers.
func traceNote(o *outcome, r reduction) {
	var layers time.Duration
	for name, d := range r.self {
		if !strings.Contains(name, ".") {
			continue // roots and op spans
		}
		layers += d
	}
	o.note("trace: timed phase %.3fs; layer self time %.3fs + glue %.3fs summed over %d workers; %.2f%% of the phase outside any op span",
		r.rootDur.Seconds(), layers.Seconds(), r.self["op"].Seconds(), runtime.GOMAXPROCS(0), 100*(1-r.covered))
}
