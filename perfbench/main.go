// Command perfbench is the repository benchmark: it runs one named
// workload against the program's public packages, checks the physics
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 19, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured on the
// program's own drivers; with -trace 1 a separate run replays the drivers'
// orchestration through the same public functions with a span around each
// call and reports the per-layer set.
//
// fig6_cold and energy_sweep run the paper's fixed design suites, so their
// inputs are the same for every seed; serve_mixed deals its jobs'
// ambients from the seed. -seconds is the serving window; a suite runs once.
//
//	go run . -workload fig6_cold -seed 1 -seconds 20 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"fig6_cold":    runFig6,
	"energy_sweep": runEnergy,
	"serve_mixed":  runServe,
}

// runConfig is what the command line hands a workload.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// OutDir receives the span dump of a traced run.
	OutDir string
	// Designs narrows a suite workload's designs (nil = its full suite).
	Designs []string
}

// outcome is one workload run: its op accounting, the failed checks, the
// measured metrics, and a digest of the physics outputs (equal digests
// mean byte-identical outputs, so a traced replay can be compared with
// its untraced run).
type outcome struct {
	Attempted int
	// FailedOps maps each failed op (design, search or job) to why: it
	// errored, was refused, did not finish, or failed an output check.
	FailedOps map[string]string
	// Violations are failed output checks; any one makes the run incorrect.
	Violations []string
	E2E        map[string]float64
	Layer      map[string]float64
	Digest     string
	// Notes are extra human-readable lines (sample counts, checks).
	Notes []string
}

func newOutcome() *outcome {
	return &outcome{FailedOps: map[string]string{}, E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// fail records an op that failed without a wrong output (refused, or
// unfinished when the run ended).
func (o *outcome) fail(op, format string, args ...any) {
	if _, ok := o.FailedOps[op]; !ok {
		o.FailedOps[op] = fmt.Sprintf(format, args...)
	}
}

// violate records a failed output check; the op fails with it.
func (o *outcome) violate(op, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.Violations = append(o.Violations, op+": "+msg)
	o.fail(op, "%s", msg)
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// failed returns the number of failed ops, capped at the attempt count.
func (o *outcome) failed() int { return min(len(o.FailedOps), o.Attempted) }

func main() {
	workload := flag.String("workload", "", "workload name: fig6_cold, energy_sweep or serve_mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "serving window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for span dumps of traced runs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -trace 0|1 and -seconds > 0\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir}
	fmt.Println(machineLine(*workload, cfg))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, out, cfg.Trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// machineLine records the machine shape and commit beside every result.
func machineLine(workload string, cfg runConfig) string {
	return fmt.Sprintf("# workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		workload, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel(), commit())
}

// cpuModel reads the CPU model name (Linux; "unknown" elsewhere).
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

// commit names the source under test: the git HEAD when the checkout is a
// git repository, else a hash of every Go source and module file in the
// tree (the benchmark's own directory excluded), so results from a plain
// source checkout still name what they measured.
func commit() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
			continue
		}
		if out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
		break
	}
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:8])
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's set by name and unit, the
// failed checks, and the JSON result line.
func report(w *os.File, o *outcome, traced bool) error {
	set, vals := e2eMetrics, o.E2E
	if traced {
		set, vals = layerMetrics, o.Layer
	}
	res := result{Attempted: max(o.Attempted, 1), Failed: o.failed(), Metrics: map[string]metric{}}
	for _, m := range set {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "%-28s %16.6f %s\n", m.Name, v, m.Unit)
	}
	for _, n := range o.Notes {
		fmt.Fprintln(w, "# "+n)
	}
	ops := make([]string, 0, len(o.FailedOps))
	for op := range o.FailedOps {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(w, "# FAILED %s: %s\n", op, o.FailedOps[op])
	}
	for _, v := range o.Violations {
		fmt.Fprintln(w, "# WRONG "+v)
	}
	fmt.Fprintf(w, "# digest %s attempted %d failed %d fail_ratio %.4f\n",
		o.Digest, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	res.Correct = len(o.Violations) == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
