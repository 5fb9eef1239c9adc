package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tafpga/internal/bench"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
	"tafpga/internal/power"
	"tafpga/internal/sta"
)

// The energy scorecard's settings (EXPERIMENTS.md, harness scale): effort
// 0.3, ambients 25 and 70 °C, each design held at its own worst-case
// baseline clock (target 0).
const energyEffort = 0.3

var energyAmbients = []float64{25, 70}

// energyDesigns is every Table II design except the two largest, whose
// cold builds would multiply set-up time without exercising the rail path
// any differently.
var energyDesigns = func() []string {
	var names []string
	for _, p := range bench.VTR {
		if p.Name != "mcml" && p.Name != "LU32PEEng" {
			names = append(names, p.Name)
		}
	}
	return names
}()

// scorecardRow is one hand-recorded row of the EXPERIMENTS.md energy
// scorecard: target clock, then minimum rail and saving at 25 and 70 °C.
type scorecardRow struct {
	targetMHz      float64
	vmin25, save25 float64
	vmin70, save70 float64
}

// scorecard is the EXPERIMENTS.md harness-scale energy table, restricted
// to energyDesigns.
var scorecard = map[string]scorecardRow{
	"bgm":              {26.4, 0.669, 20.32, 0.740, 8.67},
	"blob_merge":       {40.9, 0.666, 19.39, 0.740, 8.17},
	"boundtop":         {69.8, 0.666, 18.01, 0.740, 7.77},
	"ch_intrinsics":    {209.7, 0.658, 15.91, 0.734, 7.57},
	"diffeq1":          {151.3, 0.661, 22.07, 0.737, 9.24},
	"diffeq2":          {212.4, 0.661, 23.38, 0.737, 9.77},
	"LU8PEEng":         {25.7, 0.669, 19.42, 0.740, 8.36},
	"mkDelayWorker32B": {64.2, 0.661, 20.65, 0.732, 9.50},
	"mkPktMerge":       {185.7, 0.603, 22.38, 0.669, 15.26},
	"mkSMAdapter4B":    {96.0, 0.666, 17.49, 0.740, 7.62},
	"or1200":           {59.5, 0.663, 19.84, 0.737, 8.61},
	"raygentop":        {69.8, 0.666, 19.55, 0.740, 8.27},
	"sha":              {60.4, 0.663, 18.04, 0.737, 7.99},
	"stereovision0":    {47.1, 0.669, 18.86, 0.740, 8.16},
	"stereovision1":    {43.8, 0.669, 20.49, 0.740, 8.73},
	"stereovision2":    {31.9, 0.669, 20.89, 0.740, 8.89},
	"stereovision3":    {255.7, 0.663, 16.70, 0.737, 7.61},
}

// Scorecard tolerances: a row may drift from the recorded table by half a
// percent of its target clock, one bisection step (5 mV) of rail, and half
// a point of saving.
const (
	tolTargetFrac = 0.005
	tolVminV      = 0.005
	tolSavePts    = 0.5
)

// checkScorecard compares one row with the recorded table.
func checkScorecard(r experiments.EnergyRow) error {
	ref, ok := scorecard[r.Name]
	if !ok {
		return fmt.Errorf("no scorecard row")
	}
	vmin, save := ref.vmin25, ref.save25
	if r.AmbientC == 70 {
		vmin, save = ref.vmin70, ref.save70
	}
	switch {
	case !r.Feasible || !r.Converged:
		return fmt.Errorf("%g°C search feasible=%v converged=%v", r.AmbientC, r.Feasible, r.Converged)
	case math.Abs(r.TargetMHz-ref.targetMHz) > tolTargetFrac*ref.targetMHz+0.05:
		return fmt.Errorf("%g°C target %.2f MHz, scorecard %.1f", r.AmbientC, r.TargetMHz, ref.targetMHz)
	case math.Abs(r.MinVddV-vmin) > tolVminV+0.0005:
		return fmt.Errorf("%g°C Vmin %.4f V, scorecard %.3f", r.AmbientC, r.MinVddV, vmin)
	case math.Abs(r.SavingsPct-save) > tolSavePts+0.005:
		return fmt.Errorf("%g°C saving %.3f%%, scorecard %.2f", r.AmbientC, r.SavingsPct, save)
	}
	return nil
}

// runEnergy runs experiments.Context.EnergySweep at 25 and 70 °C over
// energyDesigns, with the implementations warmed in set-up.
func runEnergy(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var c *experiments.Context
	var sizing, prebuild []float64
	// Two set-ups, not three: each is 17 cold builds (7-11 s on two
	// vCPUs), and a third would cost more than the timed phase itself.
	setup, err := repeatSetup(2, func() error {
		c = experiments.NewContext(harnessScale)
		c.PlaceEffort = energyEffort
		c.Benchmarks = energyDesigns
		if cfg.Designs != nil {
			c.Benchmarks = cfg.Designs
		}
		t := time.Now()
		id := tr.begin("coffe.size", "D25", -1)
		_, err := c.Device(fig6AmbientC)
		tr.end(id)
		sizing = append(sizing, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		t = time.Now()
		id = tr.begin("flow.prebuild", "", -1)
		errs := make([]error, len(c.Suite()))
		fanOut(c.Suite(), func(i int, name string) { _, errs[i] = c.Implementation(name) })
		tr.end(id)
		prebuild = append(prebuild, time.Since(t).Seconds())
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer runtime.KeepAlive(c) // live_heap_mb counts what the context retains
	names := c.Suite()
	rows := make([][]experiments.EnergyRow, len(names))
	lat := make([]time.Duration, len(names))
	errs := make([]error, len(names))
	var wall, cpu float64
	root := -1
	rails := newRailStats()
	if tr == nil {
		var mu sync.Mutex
		var start time.Time
		byName := map[string]time.Duration{}
		c.OnBenchDone = func(name string, _ time.Duration) {
			mu.Lock()
			byName[name] = time.Since(start)
			mu.Unlock()
		}
		var flat []experiments.EnergyRow
		var serr error
		wall, cpu = timed(func() {
			start = time.Now()
			flat, serr = c.EnergySweep(energyAmbients, 0)
		})
		for _, r := range flat {
			for i, n := range names {
				if n == r.Name {
					rows[i] = append(rows[i], r)
				}
			}
		}
		for i, n := range names {
			lat[i] = byName[n]
			if len(rows[i]) != len(energyAmbients) {
				errs[i] = fmt.Errorf("%d of %d rows (sweep error: %v)", len(rows[i]), len(energyAmbients), serr)
			}
		}
	} else {
		root = tr.begin("energy_sweep", "", -1)
		wall, cpu = timed(func() {
			start := time.Now()
			fanOut(names, func(i int, name string) {
				op := tr.begin("op", name, root)
				im, err := c.Implementation(name)
				if err == nil {
					rows[i], err = replayEnergyDesign(tr, op, rails, im, name)
				}
				errs[i] = err
				tr.end(op)
				lat[i] = time.Since(start)
			})
		})
		tr.end(root)
	}

	o.Attempted = len(names)
	var lats, fmax, energy []float64
	var canon strings.Builder
	for i, name := range names {
		var bad []string
		if errs[i] != nil {
			bad = append(bad, errs[i].Error())
		}
		for _, r := range rows[i] {
			if err := checkScorecard(r); err != nil {
				bad = append(bad, err.Error())
			}
			fmax = append(fmax, r.FmaxMHz)
			energy = append(energy, r.EnergyPJ)
			canon.WriteString(energyLine(r))
		}
		if len(bad) > 0 {
			o.violate(name, "%s", strings.Join(bad, "; "))
			continue
		}
		lats = append(lats, lat[i].Seconds())
	}
	o.Digest = digest(canon.String())
	o.note("due-to-done over %d designs (all due at phase start, both ambients each): p50 %.3fs p95 %.3fs", len(lats), quantile(lats, 0.5), quantile(lats, 0.95))
	o.note("scorecard: %d rows within target ±%.1f%%, Vmin ±%.0f mV, saving ±%.1f points",
		len(energy), 100*tolTargetFrac, 1000*tolVminV, tolSavePts)
	suiteE2E(o, setup, wall, cpu, lats, fmax, energy)
	o.Layer["coffe.size_s"] = quantile(sizing, 0.5)
	o.Layer["flow.prebuild_s"] = quantile(prebuild, 0.5)
	if tr != nil {
		r := tr.reduce(root)
		layerTimes(o, r, "coffe.atvdd", "sta.compile", "power.model", "hotspot.model")
		o.Layer["flow.rail_s"] = r.total["flow.rail"].Seconds()
		o.Layer["guardband.energy_self_s"] = r.self["guardband.run_energy"].Seconds()
		o.Layer["coffe.atvdd_p50_s"] = quantile(seconds(r.durations["coffe.atvdd"]), 0.5)
		o.Layer["coffe.atvdd_calls"] = float64(len(r.durations["coffe.atvdd"]))
		o.Layer["flow.rail_calls"] = float64(len(r.durations["flow.rail"]))
		o.Layer["flow.rail_distinct"] = float64(rails.distinct())
		o.Layer["trace.covered_share"] = r.covered
		o.Layer["trace.glue_s"] = r.self["op"].Seconds()
		o.Layer["trace.wall_s"] = wall
		probes, iters := 0, 0
		for _, rs := range rows {
			for _, row := range rs {
				probes += row.Probes
				iters += row.Iterations
			}
		}
		o.Layer["guardband.energy_probes"] = float64(probes)
		o.Layer["guardband.energy_iters"] = float64(iters)
		traceNote(o, r)
		zeroLayers(o)
		if err := tr.write(filepath.Join(cfg.OutDir, fmt.Sprintf("trace-energy_sweep-seed%d.json", cfg.Seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// energyLine renders one row's physics at full precision.
func energyLine(r experiments.EnergyRow) string {
	return fmt.Sprintf("%s amb=%v target=%v base=%v vnom=%v vmin=%v pnom=%v p=%v save=%v e=%v enom=%v fmax=%v feas=%v probes=%d iters=%d conv=%v rise=%v\n",
		r.Name, r.AmbientC, r.TargetMHz, r.BaselineMHz, r.NominalVddV, r.MinVddV,
		r.NominalPowerUW, r.PowerUW, r.SavingsPct, r.EnergyPJ, r.NominalEnergyPJ,
		r.FmaxMHz, r.Feasible, r.Probes, r.Iterations, r.Converged, r.RiseC)
}

// railStats counts the distinct rails probed across the whole run: the
// reuse a process-wide rail memo could harvest is calls ÷ distinct.
type railStats struct {
	mu   sync.Mutex
	seen map[float64]bool
}

func newRailStats() *railStats { return &railStats{seen: map[float64]bool{}} }

func (s *railStats) saw(vdd float64) {
	s.mu.Lock()
	s.seen[vdd] = true
	s.mu.Unlock()
}

func (s *railStats) distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// railLab replays flow.VddLab: per-rail derivations of one implementation
// (flow.Implementation.AtVdd's calls), memoized across the design's
// ambients.
type railLab struct {
	tr    *tracer
	op    string
	base  *flow.Implementation
	byVdd map[float64]*flow.Implementation
}

// at is flow.VddLab.At with a span around each public call.
func (l *railLab) at(vdd float64, parent int) (*flow.Implementation, error) {
	if vdd == l.base.Device.Kit.Buf.Vdd {
		return l.base, nil
	}
	if im, ok := l.byVdd[vdd]; ok {
		return im, nil
	}
	im := *l.base
	var err error
	l.tr.call("coffe.atvdd", l.op, parent, func() { im.Device, err = l.base.Device.AtVdd(vdd) })
	if err != nil {
		return nil, fmt.Errorf("flow: rail %.3f V: %w", vdd, err)
	}
	l.tr.call("sta.compile", l.op, parent, func() { im.Timing = sta.New(im.Netlist, im.Device, im.Placed, im.Routed) })
	l.tr.call("power.model", l.op, parent, func() {
		im.Power = power.New(im.Device, im.Netlist, im.Placed, im.Routed, im.Activity)
	})
	l.tr.call("hotspot.model", l.op, parent, func() {
		im.Thermal, err = hotspot.NewModel(im.Grid.W, im.Grid.H, im.Power.BasePowerUW(25))
	})
	if err != nil {
		return nil, err
	}
	l.byVdd[vdd] = &im
	return &im, nil
}

// replayEnergyDesign replays one design of experiments.Context.EnergySweep:
// one flow.VddLab.MinEnergy per ambient, i.e. guardband.RunEnergy with a
// ModelsAt that wraps the lab's rail derivations.
func replayEnergyDesign(tr *tracer, op int, rails *railStats, im *flow.Implementation, name string) ([]experiments.EnergyRow, error) {
	lab := &railLab{tr: tr, op: name, base: im, byVdd: map[float64]*flow.Implementation{}}
	var rows []experiments.EnergyRow
	for _, amb := range energyAmbients {
		opts := guardband.DefaultEnergyOptions(amb)
		opts.NominalVddV = im.Device.Kit.Buf.Vdd
		run := tr.begin("guardband.run_energy", name, op)
		opts.ModelsAt = func(vdd float64) (guardband.EnergyModels, error) {
			id := tr.begin("flow.rail", name, run)
			defer tr.end(id)
			rails.saw(vdd)
			v, err := lab.at(vdd, id)
			if err != nil {
				return guardband.EnergyModels{}, err
			}
			if err := v.Device.Kit.OperableAt(amb); err != nil {
				return guardband.EnergyModels{}, err
			}
			return guardband.EnergyModels{Timing: v.Timing, Power: v.Power, Thermal: v.Thermal}, nil
		}
		res, err := guardband.RunEnergy(opts)
		tr.end(run)
		if err != nil {
			return rows, fmt.Errorf("experiments: %s at %g°C: %w", name, amb, err)
		}
		rows = append(rows, experiments.EnergyRow{
			Name: name, AmbientC: amb,
			TargetMHz: res.TargetMHz, BaselineMHz: res.BaselineMHz,
			NominalVddV: res.NominalVddV, MinVddV: res.MinVddV,
			NominalPowerUW: res.NominalPowerUW, PowerUW: res.PowerUW,
			SavingsPct: res.SavingsPct,
			EnergyPJ:   res.EnergyPJ, NominalEnergyPJ: res.NominalEnergyPJ,
			FmaxMHz: res.FmaxMHz, Feasible: res.Feasible,
			Probes: res.Probes, Iterations: res.Iterations,
			Converged: res.Converged, RiseC: res.RiseC,
			Stats: res.Stats,
		})
	}
	return rows, nil
}
