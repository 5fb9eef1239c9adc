package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tafpga/internal/activity"
	"tafpga/internal/arch"
	"tafpga/internal/bench"
	"tafpga/internal/coffe"
	"tafpga/internal/experiments"
	"tafpga/internal/flow"
	"tafpga/internal/guardband"
	"tafpga/internal/hotspot"
	"tafpga/internal/netlist"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/power"
	"tafpga/internal/route"
	"tafpga/internal/sta"
)

// Settings shared by the suite workloads: the harness scale and Table I
// channel width (ChannelTracks 0); every other knob keeps its default.
const (
	harnessScale = 1.0 / 64
	fig6Effort   = 0.5
	fig6AmbientC = 25
	// The suite-average gain must fall within fig6BandPts percentage
	// points of the paper's Fig. 6 average.
	paperFig6AvgPct = 36.5
	fig6BandPts     = 5.0
)

// designRun is one design's outcome in a suite workload.
type designRun struct {
	res      experiments.BenchResult
	energyPJ float64
	// latency is due-to-done: every design of a suite is due when the
	// timed phase starts, so this is the time until its result exists.
	latency time.Duration
	err     error
	// im and gb are the replay's implementation and guardband result,
	// checked after the timed phase.
	im *flow.Implementation
	gb *guardband.Result
}

// runFig6 runs experiments.Context.Fig6 from a fresh context with no flow
// cache; only the corner device is built in set-up.
func runFig6(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var c *experiments.Context
	var sizing []float64
	setup, err := repeatSetup(5, func() error {
		c = experiments.NewContext(harnessScale)
		c.PlaceEffort = fig6Effort
		c.Benchmarks = cfg.Designs
		t := time.Now()
		id := tr.begin("coffe.size", "D25", -1)
		_, err := c.Device(fig6AmbientC)
		tr.end(id)
		sizing = append(sizing, time.Since(t).Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	defer runtime.KeepAlive(c) // live_heap_mb counts what the context retains
	names := c.Suite()
	runs := make([]designRun, len(names))
	var counts fig6Counters
	var wall, cpu float64
	root := -1
	if tr == nil {
		var mu sync.Mutex
		var start time.Time
		lat := map[string]time.Duration{}
		c.OnBenchDone = func(name string, _ time.Duration) {
			mu.Lock()
			lat[name] = time.Since(start)
			mu.Unlock()
		}
		var rs []experiments.BenchResult
		var ferr error
		wall, cpu = timed(func() {
			start = time.Now()
			rs, ferr = c.Fig6()
		})
		byName := map[string]experiments.BenchResult{}
		for _, r := range rs {
			byName[r.Name] = r
		}
		for i, name := range names {
			r, ok := byName[name]
			if !ok {
				runs[i].err = fmt.Errorf("no result (suite error: %v)", ferr)
				continue
			}
			runs[i].res, runs[i].latency = r, lat[name]
			runs[i].energyPJ, runs[i].err = fig6Recheck(c, r)
		}
	} else {
		dev, _ := c.Device(fig6AmbientC)
		root = tr.begin("fig6", "", -1)
		wall, cpu = timed(func() {
			start := time.Now()
			fanOut(names, func(i int, name string) {
				runs[i] = replayFig6Design(tr, root, dev, name)
				runs[i].latency = time.Since(start)
			})
		})
		tr.end(root)
		for i := range runs {
			if r := &runs[i]; r.err == nil {
				r.energyPJ, r.err = checkedEnergy(r.im, r.gb)
				counts.add(r.im, r.gb)
			}
		}
	}

	o.Attempted = len(names)
	var lats, fmax, energy []float64
	var canon strings.Builder
	sumGain := 0.0
	for i, r := range runs {
		if r.err != nil {
			o.violate(names[i], "%v", r.err)
			continue
		}
		if !r.res.Converged {
			o.violate(names[i], "Algorithm 1 did not converge")
		}
		lats = append(lats, r.latency.Seconds())
		fmax = append(fmax, r.res.FmaxMHz)
		energy = append(energy, r.energyPJ)
		sumGain += r.res.GainPct
		canon.WriteString(benchLine(r.res))
	}
	if len(fmax) == len(names) {
		avg := sumGain / float64(len(names))
		o.note("fig6 average gain %.2f%% (paper %.1f%%, band ±%.1f points)", avg, paperFig6AvgPct, fig6BandPts)
		if avg < paperFig6AvgPct-fig6BandPts || avg > paperFig6AvgPct+fig6BandPts {
			o.violate("suite", "fig6 average gain %.2f%% outside %.1f±%.1f%%", avg, paperFig6AvgPct, fig6BandPts)
		}
	}
	o.Digest = digest(canon.String())
	o.note("due-to-done over %d designs (all due at phase start): p50 %.3fs p95 %.3fs", len(lats), quantile(lats, 0.5), quantile(lats, 0.95))
	suiteE2E(o, setup, wall, cpu, lats, fmax, energy)
	o.Layer["coffe.size_s"] = quantile(sizing, 0.5)
	if tr != nil {
		fig6Layers(o, tr, root, &counts)
		o.Layer["trace.wall_s"] = wall
		zeroLayers(o)
		if err := tr.write(filepath.Join(cfg.OutDir, fmt.Sprintf("trace-fig6_cold-seed%d.json", cfg.Seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// suiteE2E fills the end-to-end set of a fixed-work suite workload.
func suiteE2E(o *outcome, setup, wall, cpu float64, lats, fmax, energy []float64) {
	ok := float64(o.Attempted - o.failed())
	o.E2E["setup_s"] = setup
	o.E2E["wall_s"] = wall
	o.E2E["cpu_s"] = cpu
	o.E2E["op_p50_s"] = quantile(lats, 0.5)
	o.E2E["op_p95_s"] = quantile(lats, 0.95)
	o.E2E["goodput_ops"] = ok / wall
	o.E2E["fmax_geomean_mhz"] = geomean(fmax)
	o.E2E["energy_pj_geomean"] = geomean(energy)
	o.E2E["live_heap_mb"] = liveHeapMB()
	o.Layer["proc.peak_rss_mb"] = peakRSSMB()
	o.E2E["ok_ratio"] = ok / float64(o.Attempted)
}

// benchLine renders one result's physics at full precision (kernel wall
// times excluded): the canonical bytes traced and untraced runs compare.
func benchLine(r experiments.BenchResult) string {
	return fmt.Sprintf("%s gain=%v fmax=%v base=%v iters=%d rise=%v spread=%v conv=%v\n",
		r.Name, r.GainPct, r.FmaxMHz, r.BaselineMHz, r.Iterations, r.RiseC, r.SpreadC, r.Converged)
}

// fig6Recheck runs after the timed phase: it re-derives the design's
// guardband on the cached implementation (the result must repeat exactly),
// confirms a legal routing, and returns the energy per cycle at the
// guardbanded clock.
func fig6Recheck(c *experiments.Context, r experiments.BenchResult) (float64, error) {
	im, err := c.Implementation(r.Name)
	if err != nil {
		return 0, err
	}
	res, err := im.Guardband(guardband.DefaultOptions(fig6AmbientC))
	if err != nil {
		return 0, err
	}
	if res.FmaxMHz != r.FmaxMHz || res.GainPct != r.GainPct || res.Iterations != r.Iterations {
		return 0, fmt.Errorf("guardband did not repeat: fmax %v vs %v", res.FmaxMHz, r.FmaxMHz)
	}
	return checkedEnergy(im, res)
}

// checkedEnergy checks the routing's legality and returns pJ per cycle
// (µW / MHz) at the result's clock and temperature map.
func checkedEnergy(im *flow.Implementation, res *guardband.Result) (float64, error) {
	if im.Routed.MaxOcc < 1 {
		return 0, fmt.Errorf("routing holds no nets (max occupancy %d)", im.Routed.MaxOcc)
	}
	return power.TotalUW(im.Power.Vector(res.FmaxMHz, res.Temps)) / res.FmaxMHz, nil
}

// replayFig6Design replays experiments.Context.Implementation (through
// flow.Implement's stages) and the Fig. 6 guardband run for one design,
// with a span around every public call.
func replayFig6Design(tr *tracer, root int, dev *coffe.Device, name string) (out designRun) {
	op := tr.begin("op", name, root)
	defer tr.end(op)
	im, err := replayImplement(tr, op, dev, name, fig6Effort)
	if err != nil {
		out.err = err
		return out
	}
	var res *guardband.Result
	tr.call("guardband.run", name, op, func() {
		res, err = guardband.Run(im.Timing, im.Power, im.Thermal, guardband.DefaultOptions(fig6AmbientC))
	})
	if err != nil {
		out.err = err
		return out
	}
	out.res = experiments.BenchResult{
		Name: name, GainPct: res.GainPct,
		FmaxMHz: res.FmaxMHz, BaselineMHz: res.BaselineMHz,
		Iterations: res.Iterations, RiseC: res.RiseC, SpreadC: res.SpreadC,
		Converged: res.Converged, Stats: res.Stats,
	}
	out.im, out.gb = im, res
	return out
}

// replayImplement is experiments.Context.Implementation at the given
// effort without a flow cache: bench.Generate, then flow.Implement's
// stages in its order with its arguments.
func replayImplement(tr *tracer, op int, dev *coffe.Device, name string, effort float64) (*flow.Implementation, error) {
	p, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	seed := bench.SeedFor(name)
	var nl *netlist.Netlist
	tr.call("bench.generate", name, op, func() { nl, err = bench.Generate(p.Scaled(harnessScale), seed) })
	if err != nil {
		return nil, err
	}
	var act []activity.Stats
	tr.call("activity.estimate", name, op, func() { act = activity.Estimate(nl, p.PIDensity) })
	var packed *pack.Result
	tr.call("pack.pack", name, op, func() { packed, err = pack.Pack(nl, dev.Arch.N, dev.Arch.ClusterInputs) })
	if err != nil {
		return nil, err
	}
	var grid *arch.Grid
	tr.call("arch.build", name, op, func() {
		grid, err = arch.Build(dev.Arch, len(packed.Clusters), len(packed.BRAMs), len(packed.DSPs))
	})
	if err != nil {
		return nil, err
	}
	var placed *place.Placement
	tr.call("place.place", name, op, func() { placed, err = place.Place(packed, grid, seed, effort) })
	if err != nil {
		return nil, err
	}
	var graph *route.Graph
	tr.call("route.graph", name, op, func() { graph = flow.BuildGraph(grid) })
	var routed *route.Result
	tr.call("route.route", name, op, func() { routed, err = route.Route(placed, graph, route.DefaultOptions()) })
	if err != nil {
		return nil, err
	}
	var an *sta.Analyzer
	tr.call("sta.compile", name, op, func() { an = sta.New(nl, dev, placed, routed) })
	var pm *power.Model
	tr.call("power.model", name, op, func() { pm = power.New(dev, nl, placed, routed, act) })
	var th *hotspot.Model
	tr.call("hotspot.model", name, op, func() { th, err = hotspot.NewModel(grid.W, grid.H, pm.BasePowerUW(25)) })
	if err != nil {
		return nil, err
	}
	return &flow.Implementation{
		Netlist: nl, Device: dev, Grid: grid, Packed: packed, Placed: placed,
		Routed: routed, Activity: act, Timing: an, Power: pm, Thermal: th,
	}, nil
}

// fig6Counters accumulates the algorithm counters of a traced suite run.
type fig6Counters struct {
	clusters, routeIters, gbIters     int
	staProbes, thermalSolves, wirelen int
	maxOcc                            int
	placeCost                         float64
}

func (f *fig6Counters) add(im *flow.Implementation, res *guardband.Result) {
	f.clusters += len(im.Packed.Clusters)
	f.routeIters += im.Routed.Iters
	f.gbIters += res.Iterations
	f.staProbes += res.Stats.STAProbes
	f.thermalSolves += res.Stats.ThermalSolves
	for _, n := range im.Routed.Nets {
		f.wirelen += n.WireLenTiles
	}
	f.maxOcc = max(f.maxOcc, im.Routed.MaxOcc)
	f.placeCost += im.Placed.Cost
}

// fig6Layers reduces the trace of a fig6 replay to the per-layer set.
func fig6Layers(o *outcome, tr *tracer, root int, f *fig6Counters) {
	r := tr.reduce(root)
	layerTimes(o, r, "bench.generate", "activity.estimate", "pack.pack", "arch.build",
		"place.place", "route.graph", "route.route", "sta.compile", "power.model",
		"hotspot.model", "guardband.run")
	o.Layer["trace.covered_share"] = r.covered
	o.Layer["trace.glue_s"] = r.self["op"].Seconds()
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "route.route" && s.Op == "mcml" {
			o.Layer["route.route_mcml_s"] = (s.End - s.Start).Seconds()
		}
	}
	tr.mu.Unlock()
	o.Layer["pack.clusters"] = float64(f.clusters)
	o.Layer["route.iters_sum"] = float64(f.routeIters)
	o.Layer["guardband.iters_sum"] = float64(f.gbIters)
	o.Layer["guardband.sta_probes"] = float64(f.staProbes)
	o.Layer["guardband.thermal_solves"] = float64(f.thermalSolves)
	o.Layer["place.cost_sum"] = f.placeCost
	o.Layer["route.wirelen_tiles_sum"] = float64(f.wirelen)
	o.Layer["route.max_occ"] = float64(f.maxOcc)
	traceNote(o, r)
}
