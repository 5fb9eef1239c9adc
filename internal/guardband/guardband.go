// Package guardband implements the paper's core contribution, Algorithm 1
// (thermal-aware guardbanding): starting from the ambient temperature, it
// iterates temperature-aware timing analysis → (frequency-, activity-, and
// temperature-dependent) power estimation → steady-state thermal simulation
// until the per-tile temperature map converges, then sets the clock with
// only a small δT margin instead of the conventional worst-case-corner
// guardband.
package guardband

import (
	"context"
	"fmt"
	"time"

	"tafpga/internal/coffe"
	"tafpga/internal/faults"
	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// Options tunes Algorithm 1.
type Options struct {
	// AmbientC is the ambient (initial junction) temperature T_amb.
	AmbientC float64
	// DeltaTC is the convergence threshold and final safety margin δT.
	DeltaTC float64
	// WorstCaseC is the conventional guardband corner T_worst for the
	// baseline (100 °C in the paper).
	WorstCaseC float64
	// MaxIters bounds the convergence loop; the paper observes fewer than
	// ten iterations.
	MaxIters int
	// UniformT, when set, collapses the temperature map to its hottest
	// tile each iteration — the single-temperature assumption of prior
	// work ([12]) that the paper argues is pessimistic. Used for ablation.
	UniformT bool
	// FreezeLeakage, when set, evaluates leakage at T_amb instead of the
	// iterated temperatures, disabling the leakage-temperature feedback
	// loop. Used for ablation.
	FreezeLeakage bool
	// Reference, when set, routes every kernel through the seed
	// implementations (sta.AnalyzeReference and hotspot.SolveReference):
	// the "before" half of the perf-regression harness and the golden path
	// the equivalence tests compare against.
	Reference bool
	// Ctx, when non-nil, is checked at the top of every Algorithm-1
	// iteration: a cancelled or expired context stops the run between
	// iterations and Run returns the (wrapped) context error. A nil Ctx
	// never cancels, so existing callers are unaffected.
	Ctx context.Context
	// OnIteration, when set, receives one Progress per convergence
	// iteration, after its thermal solve. The callback observes the run —
	// it cannot alter any reported number.
	OnIteration func(Progress)
}

// Progress is one Algorithm-1 iteration as seen by Options.OnIteration:
// enough to stream a live convergence trace without carrying the whole
// temperature map.
type Progress struct {
	// Iteration counts from 1.
	Iteration int
	// AmbientC is the ambient temperature of the run, so a stream that
	// carries several runs (a sweep) stays attributable.
	AmbientC float64
	// FmaxMHz is the timing result at the iteration's input temperatures.
	FmaxMHz float64
	// MaxDeltaC is the infinity-norm change of the temperature map this
	// iteration (compared against δT for convergence).
	MaxDeltaC float64
	// MaxC is the hottest tile after the iteration's thermal solve.
	MaxC float64
	// Converged marks the iteration that met the δT threshold.
	Converged bool
	// VddV is the candidate core rail when the event narrates a min-energy
	// bisection probe (RunEnergy); 0 on the fmax objective's iteration
	// events, whose runs never leave the nominal rail.
	VddV float64
}

// DefaultOptions returns the paper's experimental settings.
func DefaultOptions(ambientC float64) Options {
	return Options{AmbientC: ambientC, DeltaTC: 0.5, WorstCaseC: 100, MaxIters: 20}
}

// Result reports one guardbanding run.
type Result struct {
	// FmaxMHz is the thermally-aware frequency (Algorithm 1's output).
	FmaxMHz float64
	// BaselineMHz is the conventional frequency assuming T_worst on every
	// tile.
	BaselineMHz float64
	// Converged is true when the temperature map met the δT threshold
	// within MaxIters. When false, Temps (and the frequency derived from
	// it) are the last iterate of an unconverged loop and should be
	// treated as an estimate, not an operating point.
	Converged bool
	// GainPct is the performance improvement of thermal-aware guardbanding
	// over the worst-case baseline, in percent.
	GainPct float64
	// Iterations is the number of timing/power/thermal rounds to converge.
	Iterations int
	// Temps is the converged per-tile temperature map.
	Temps []float64
	// RiseC is the mean converged rise over ambient.
	RiseC float64
	// SpreadC is the converged on-chip temperature variation.
	SpreadC float64
	// Breakdown is the critical-path composition at the converged corner.
	Breakdown map[coffe.ResourceKind]float64
	// Stats accounts the kernel work (probes, solves, wall time) the run
	// performed.
	Stats Stats
}

// normalize fills unset options with the paper's defaults.
func (o *Options) normalize() {
	if o.MaxIters <= 0 {
		o.MaxIters = 20
	}
	if o.DeltaTC <= 0 {
		o.DeltaTC = 0.5
	}
}

// Run executes Algorithm 1 on one routed implementation.
func Run(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, opts Options) (*Result, error) {
	opts.normalize()
	t0 := time.Now()
	worst := analyzeAt(an, sta.UniformTemps(an.PL.Grid.NumTiles(), opts.WorstCaseC), opts.Reference)
	baseNs := time.Since(t0).Nanoseconds()
	res, err := runWithBaseline(an, pm, th, opts, worst)
	if err != nil {
		return nil, err
	}
	res.Stats.STAProbes++
	res.Stats.STANs += baseNs
	return res, nil
}

// analyzeAt dispatches a timing probe to the compiled or seed analyzer.
func analyzeAt(an *sta.Analyzer, temps []float64, reference bool) sta.Report {
	if reference {
		return an.AnalyzeReference(temps)
	}
	return an.Analyze(temps)
}

// solveAt dispatches a thermal solve to the direct or seed solver.
func solveAt(th *hotspot.Model, powerUW []float64, ambientC float64, reference bool) ([]float64, error) {
	if reference {
		return th.SolveReference(powerUW, ambientC)
	}
	return th.Solve(powerUW, ambientC)
}

// runWithBaseline is Run with the conventional worst-case STA precomputed:
// the baseline depends only on the implementation and T_worst, so callers
// sweeping ambient conditions (RunAdaptive) analyze it once and share it.
// opts must already be normalized.
func runWithBaseline(an *sta.Analyzer, pm *power.Model, th *hotspot.Model, opts Options, worst sta.Report) (*Result, error) {
	nTiles := an.PL.Grid.NumTiles()

	// Line 1-2: start from ambient everywhere.
	temps := sta.UniformTemps(nTiles, opts.AmbientC)
	res := &Result{}

	var rep sta.Report
	for iter := 1; iter <= opts.MaxIters; iter++ {
		// Cancellation is checked between iterations only: each
		// STA→power→thermal round is short, and stopping on a round
		// boundary keeps the partial state coherent.
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("guardband: cancelled after %d iterations: %w", res.Iterations, err)
			}
		}
		// Fault injection shares the iteration boundary with cancellation:
		// an injected failure aborts between coherent iterates, exercising
		// the serving layer's retry path without perturbing any number.
		if err := faults.Check("guardband.iter"); err != nil {
			return nil, fmt.Errorf("guardband: iteration %d: %w", iter, err)
		}
		res.Iterations = iter
		// Line 4: full-netlist timing at the current temperature map.
		t0 := time.Now()
		rep = analyzeAt(an, temps, opts.Reference)
		res.Stats.STAProbes++
		res.Stats.STANs += time.Since(t0).Nanoseconds()
		f := rep.FmaxMHz

		// Line 5: dynamic power at f plus leakage at the tile temperatures.
		leakTemps := temps
		if opts.FreezeLeakage {
			leakTemps = sta.UniformTemps(nTiles, opts.AmbientC)
		}
		t0 = time.Now()
		p := pm.Vector(f, leakTemps)
		res.Stats.PowerNs += time.Since(t0).Nanoseconds()

		// Line 7: thermal simulation.
		t0 = time.Now()
		next, err := solveAt(th, p, opts.AmbientC, opts.Reference)
		res.Stats.ThermalSolves++
		res.Stats.ThermalNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("guardband: %w", err)
		}
		if opts.UniformT {
			next = sta.UniformTemps(nTiles, hotspot.Max(next))
		}

		// Line 3/8: convergence on the infinity norm.
		maxDelta := 0.0
		for i := range next {
			d := next[i] - temps[i]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
		temps = next
		converged := maxDelta <= opts.DeltaTC
		if opts.OnIteration != nil {
			opts.OnIteration(Progress{
				Iteration: iter, AmbientC: opts.AmbientC, FmaxMHz: f,
				MaxDeltaC: maxDelta, MaxC: hotspot.Max(next), Converged: converged,
			})
		}
		if converged {
			res.Converged = true
			break
		}
	}

	// Line 9: final frequency with the δT safety margin.
	margined := make([]float64, nTiles)
	for i := range temps {
		margined[i] = temps[i] + opts.DeltaTC
	}
	t0 := time.Now()
	final := analyzeAt(an, margined, opts.Reference)
	res.Stats.STAProbes++
	res.Stats.STANs += time.Since(t0).Nanoseconds()

	res.FmaxMHz = final.FmaxMHz
	res.BaselineMHz = worst.FmaxMHz
	if worst.FmaxMHz > 0 {
		res.GainPct = (final.FmaxMHz/worst.FmaxMHz - 1) * 100
	}
	res.Temps = temps
	res.RiseC = hotspot.Mean(temps) - opts.AmbientC
	res.SpreadC = hotspot.Spread(temps)
	res.Breakdown = final.Breakdown
	return res, nil
}
