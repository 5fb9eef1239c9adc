package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tafpga/internal/experiments"
	"tafpga/internal/guardband"
	"tafpga/internal/jobs"
	"tafpga/internal/obs"
	"tafpga/internal/server"
)

// The serving workload: tafpgad's defaults (1 worker, queue 64, in-memory
// flow cache, tafpgad's retry policy) at the harness scale, fed an
// open-loop stream at a fixed offered rate that this stack sustains
// without a growing backlog.
const (
	serveRate = 1.5 // offered jobs per second
	// latencyLimit is the due-to-done limit goodput counts against.
	latencyLimit = 1.0 // seconds
	serveGrid    = 512 // ambient lattice points per design (taload's default)
	drainBudget  = 60 * time.Second
	gbSamples    = 6 // guardband results re-derived directly per run
	// spinLead is how long before each due time the generator stops
	// sleeping and spins, so that waking a parked thread does not make the
	// arrival late.
	spinLead = 2 * time.Millisecond
)

// servePool is taload's default design pool.
var servePool = []string{"sha", "diffeq1", "ch_intrinsics"}

// serveBlock is one block of ten arrivals in taload's default mix: 10 %
// min-energy, 20 % sweep, 70 % guardband, each design a third of the
// arrivals over three blocks. The block opens with its min-energy search,
// whose design rotates through the pool from block to block (an empty
// design below). A search runs for a second or two on the single worker,
// so the arrivals behind it queue, and how many depends on the host's
// speed. The three behind it are sha's two sweeps and one guardband job,
// the slowest of the cheap jobs, and the other six are guardband jobs
// alternating the two faster designs. So the jobs that never queue are
// the same six guardband jobs of two designs in every block however fast
// the host is, and the median latency falls among them: were a faster
// design among the queued, one more or one fewer of them queueing would
// move the median between latency groups. The order is fixed, so the searches stay ten
// arrivals apart on every seed.
var serveBlock = []struct {
	kind  jobs.Kind
	bench string
}{
	{jobs.KindMinEnergy, ""},
	{jobs.KindSweep, "sha"}, {jobs.KindGuardband, "sha"}, {jobs.KindSweep, "sha"},
	{jobs.KindGuardband, "diffeq1"}, {jobs.KindGuardband, "ch_intrinsics"},
	{jobs.KindGuardband, "diffeq1"}, {jobs.KindGuardband, "ch_intrinsics"},
	{jobs.KindGuardband, "diffeq1"}, {jobs.KindGuardband, "ch_intrinsics"},
}

// specStream draws n specs from the seed. The arrivals follow serveBlock;
// sweeps take 2 or 3 points and min-energy searches 1 or 2, 10 °C apart,
// as taload draws them, the count rotating per kind; the m specs of one
// (kind, design, points) cell take the midpoints of m equal slices of
// taload's 0.05 °C ambient lattice from 20 °C, and the seed deals those
// ambients out. So what is offered is the same for every seed of one
// length, every seed covers the lattice evenly, and the served physics
// (fmax and energy geomeans) depends only on the length.
func specStream(seed int64, n int) []jobs.Spec {
	rng := rand.New(rand.NewSource(seed))
	type cell struct {
		kind   jobs.Kind
		bench  string
		points int
	}
	perKind := map[jobs.Kind]int{}
	cells := make([]cell, n)
	for a := range cells {
		slot := serveBlock[a%len(serveBlock)]
		i := perKind[slot.kind]
		perKind[slot.kind]++
		c := cell{kind: slot.kind, bench: slot.bench, points: 1}
		switch slot.kind {
		case jobs.KindSweep:
			c.points = 2 + i/len(servePool)%2
		case jobs.KindMinEnergy:
			c.bench = servePool[i%len(servePool)]
			c.points = 1 + i/len(servePool)%2
		}
		cells[a] = c
	}
	count := map[cell]int{}
	for _, c := range cells {
		count[c]++
	}
	// Deal in arrival order, never in map order, so the stream depends on
	// the seed alone.
	slots := map[cell][]int{}
	out := make([]jobs.Spec, n)
	for i, c := range cells {
		if _, ok := slots[c]; !ok {
			slots[c] = rng.Perm(count[c])
		}
		slot := slots[c][0]
		slots[c] = slots[c][1:]
		amb := 20 + 0.05*float64((2*slot+1)*serveGrid/(2*count[c]))
		axis := make([]float64, c.points)
		for p := range axis {
			axis[p] = amb + 10*float64(p)
		}
		switch c.kind {
		case jobs.KindGuardband:
			out[i] = jobs.Spec{Kind: c.kind, Benchmark: c.bench, AmbientC: amb}
		default:
			out[i] = jobs.Spec{Kind: c.kind, Benchmark: c.bench, Ambients: axis}
		}
	}
	return out
}

// stack is the in-process daemon: runner, manager and HTTP server.
type stack struct {
	mgr    *jobs.Manager
	hs     *http.Server
	url    string
	served chan struct{} // closed when the HTTP server's Serve returns
}

// newStack builds the daemon stack as tafpgad does, then warms the device
// library and the pool designs' implementations (into the flow cache).
func newStack(tr *tracer, sizing, prebuild *[]float64) (*stack, error) {
	reg := obs.NewRegistry()
	runner := jobs.NewRunner(jobs.RunnerConfig{Scale: harnessScale, Obs: reg})
	mgr := jobs.New(runner.Run, jobs.Options{
		Workers: 1, MaxQueue: 64, TTL: 15 * time.Minute, Registry: reg,
		Retry: jobs.RetryPolicy{MaxAttempts: 3, BaseBackoff: 500 * time.Millisecond, MaxBackoff: 30 * time.Second},
	})
	srv := server.New(mgr, reg)
	srv.ServeCache(runner.Cache())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	s := &stack{mgr: mgr, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()

	t := time.Now()
	id := tr.begin("coffe.size", "D25", -1)
	err = runner.Warm()
	tr.end(id)
	*sizing = append(*sizing, time.Since(t).Seconds())
	if err != nil {
		s.close()
		return nil, err
	}
	t = time.Now()
	id = tr.begin("flow.prebuild", "", -1)
	for _, b := range servePool {
		if _, err = runner.Run(context.Background(), jobs.Spec{Kind: jobs.KindGuardband, Benchmark: b, AmbientC: 25}, nil); err != nil {
			break
		}
	}
	tr.end(id)
	*prebuild = append(*prebuild, time.Since(t).Seconds())
	if err != nil {
		s.close()
		return nil, err
	}
	srv.SetReady(true)
	return s, nil
}

// close stops the HTTP server and the manager's workers and waits for them.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.mgr.Close()
}

// backlog counts accepted jobs that have not finished.
func (s *stack) backlog() int {
	return len(s.mgr.ListState(jobs.StateQueued)) + len(s.mgr.ListState(jobs.StateRunning))
}

// submission is one arrival of the open-loop stream.
type submission struct {
	spec              jobs.Spec
	due, sent, answer time.Time
	status            int
	id                string
	deduped           bool
	err               error
	view              jobs.View
}

// runServe offers the seeded stream for cfg.Seconds and waits for the
// accepted jobs to finish.
func runServe(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var sizing, prebuild []float64
	var st *stack
	setup, err := repeatSetup(5, func() error {
		if st != nil {
			st.close()
		}
		var err error
		st, err = newStack(tr, &sizing, &prebuild)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	n := max(1, int(serveRate*cfg.Seconds+0.5))
	window := time.Duration(float64(n) / serveRate * float64(time.Second))
	subs := make([]submission, n)
	for i, sp := range specStream(cfg.Seed, n) {
		subs[i].spec = sp
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}
	defer client.CloseIdleConnections()

	// Open loop: arrival i is due at t0 + i/rate whatever the responses.
	var wg sync.WaitGroup
	backlogMax := 0
	c0 := cpuSeconds()
	t0 := time.Now().Add(20 * time.Millisecond)
	root := tr.begin("serve", "", -1)
	for i := range subs {
		s := &subs[i]
		s.due = t0.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		time.Sleep(time.Until(s.due) - spinLead)
		backlogMax = max(backlogMax, st.backlog())
		for time.Now().Before(s.due) {
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit(client, st.url, s)
		}()
	}
	time.Sleep(time.Until(t0.Add(window)))
	backlogEnd := st.backlog()
	wg.Wait()

	// Drain: wait for every accepted job to reach a terminal state.
	deadline := time.Now().Add(drainBudget)
	for i := range subs {
		s := &subs[i]
		if s.id == "" {
			continue
		}
		for {
			v, ok := st.mgr.Get(s.id)
			if !ok || v.State.Terminal() || time.Now().After(deadline) {
				s.view = v
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	end := t0
	for _, s := range subs {
		if s.view.Finished != nil && s.view.Finished.After(end) {
			end = *s.view.Finished
		}
	}
	wall, cpu := end.Sub(t0).Seconds(), cpuSeconds()-c0
	tr.end(root)

	serveOutcome(o, subs, window, cfg.Seed)
	o.E2E["setup_s"] = setup
	o.E2E["wall_s"] = wall
	o.E2E["cpu_s"] = cpu
	o.Layer["coffe.size_s"] = quantile(sizing, 0.5)
	o.Layer["flow.prebuild_s"] = quantile(prebuild, 0.5)
	o.Layer["jobs.backlog_max"] = float64(backlogMax)
	o.Layer["jobs.backlog_end"] = float64(backlogEnd)
	o.note("offered %d jobs at %.1f jobs/s over %.1fs; backlog max %d, left at window end %d",
		n, serveRate, window.Seconds(), backlogMax, backlogEnd)
	if tr != nil {
		serveSpans(tr, root, subs)
		r := tr.reduce(root)
		o.Layer["trace.wall_s"] = wall
		o.Layer["trace.covered_share"] = r.covered
		traceNote(o, r)
		zeroLayers(o)
		if err := tr.write(filepath.Join(cfg.OutDir, fmt.Sprintf("trace-serve_mixed-seed%d.json", cfg.Seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// submit POSTs one spec and records the answer.
func submit(client *http.Client, url string, s *submission) {
	body, _ := json.Marshal(s.spec)
	s.sent = time.Now()
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	var v struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
		Error   string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	s.answer = time.Now()
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, v.Error)
	default:
		s.id, s.deduped = v.ID, v.Deduped
	}
}

// serveSpans records each submission's POST round trip and each job's
// queue wait and run as spans, from the client's clock and the manager's
// own timestamps.
func serveSpans(tr *tracer, root int, subs []submission) {
	seen := map[string]bool{}
	for i, s := range subs {
		op := arrival(i)
		if !s.answer.IsZero() {
			tr.add("server.submit", op, root, s.sent, s.answer)
		}
		v := s.view
		if s.id == "" || seen[s.id] || v.Started == nil || v.Finished == nil {
			continue
		}
		seen[s.id] = true
		tr.add("jobs.queue", s.id, root, v.Created, *v.Started)
		tr.add("jobs.run_"+kindLabel(v.Spec.Kind), s.id, root, *v.Started, *v.Finished)
	}
}

// arrival names the i-th arrival as an op.
func arrival(i int) string { return fmt.Sprintf("arrival-%03d", i) }

func kindLabel(k jobs.Kind) string { return strings.ReplaceAll(string(k), "-", "") }

// serveOutcome checks the served results and computes every metric that
// does not need the stack.
func serveOutcome(o *outcome, subs []submission, window time.Duration, seed int64) {
	o.Attempted = len(subs)
	var lats, gbLats, meLats, submitLats, late []float64
	var fmax, energy []float64
	waits, runs := []float64{}, map[jobs.Kind][]float64{}
	seen := map[string]bool{}
	refused, deduped, accepted, good := 0, 0, 0, 0
	var canon strings.Builder
	for i, s := range subs {
		late = append(late, 1000*s.sent.Sub(s.due).Seconds())
		if s.status == http.StatusTooManyRequests {
			refused++
		}
		if s.err != nil {
			o.fail(arrival(i), "%s %s: %v", s.spec.Kind, s.spec.Benchmark, s.err)
			continue
		}
		accepted++
		submitLats = append(submitLats, s.answer.Sub(s.sent).Seconds())
		if s.deduped {
			deduped++
		}
		v := s.view
		if v.State == jobs.StateFailed {
			o.violate(arrival(i), "job %s failed: %s", s.id, v.Error)
			continue
		}
		if v.State != jobs.StateDone || v.Finished == nil {
			o.fail(arrival(i), "job %s still %q when the drain budget ran out", s.id, v.State)
			continue
		}
		d := v.Finished.Sub(s.due).Seconds()
		lats = append(lats, d)
		if d <= latencyLimit {
			good++
		}
		if !seen[s.id] {
			seen[s.id] = true
			waits = append(waits, v.Started.Sub(v.Created).Seconds())
			runs[s.spec.Kind] = append(runs[s.spec.Kind], v.Finished.Sub(*v.Started).Seconds())
		}
		fmt.Fprintf(&canon, "%d %s\n", i, s.spec.Key())
		switch r := v.Result.(type) {
		case experiments.BenchResult:
			gbLats = append(gbLats, d)
			fmax = append(fmax, r.FmaxMHz)
			canon.WriteString(benchLine(r))
		case []experiments.BenchResult:
			gbLats = append(gbLats, d)
			for _, x := range r {
				fmax = append(fmax, x.FmaxMHz)
				canon.WriteString(benchLine(x))
			}
		case []experiments.EnergyRow:
			meLats = append(meLats, d)
			for _, x := range r {
				if !x.Feasible || !x.Converged {
					o.violate(arrival(i), "%s at %g°C: feasible=%v converged=%v", x.Name, x.AmbientC, x.Feasible, x.Converged)
				}
				energy = append(energy, x.EnergyPJ)
				canon.WriteString(energyLine(x))
			}
		default:
			o.violate(arrival(i), "unexpected result type %T", v.Result)
		}
	}
	checkGuardbandSample(o, subs, seed)
	o.Digest = digest(canon.String())

	o.E2E["op_p50_s"] = quantile(lats, 0.5)
	o.E2E["op_p95_s"] = quantile(lats, 0.95)
	o.E2E["goodput_ops"] = float64(good) / window.Seconds()
	o.E2E["fmax_geomean_mhz"] = geomean(fmax)
	o.E2E["energy_pj_geomean"] = geomean(energy)
	o.E2E["live_heap_mb"] = liveHeapMB()
	o.Layer["proc.peak_rss_mb"] = peakRSSMB()
	o.E2E["ok_ratio"] = float64(o.Attempted-o.failed()) / float64(o.Attempted)
	o.Layer["server.submit_p50_s"] = quantile(submitLats, 0.5)
	o.Layer["jobs.queue_wait_p50_s"] = quantile(waits, 0.5)
	o.Layer["jobs.queue_wait_p95_s"] = quantile(waits, 0.95)
	o.Layer["jobs.run_guardband_p50_s"] = quantile(runs[jobs.KindGuardband], 0.5)
	o.Layer["jobs.run_sweep_p50_s"] = quantile(runs[jobs.KindSweep], 0.5)
	o.Layer["jobs.run_minenergy_p50_s"] = quantile(runs[jobs.KindMinEnergy], 0.5)
	o.Layer["serve.gb_p50_s"] = quantile(gbLats, 0.5)
	o.Layer["serve.minenergy_p50_s"] = quantile(meLats, 0.5)
	o.Layer["jobs.dedup_ratio"] = float64(deduped) / float64(max(accepted, 1))
	o.Layer["jobs.refused"] = float64(refused)
	o.Layer["gen.late_p95_ms"] = quantile(late, 0.95)

	o.note("due-to-done n=%d p50 %.4fs p95 %.4fs; guardband+sweep n=%d p50 %.4fs; min-energy n=%d p50 %.4fs",
		len(lats), quantile(lats, 0.5), quantile(lats, 0.95), len(gbLats), quantile(gbLats, 0.5), len(meLats), quantile(meLats, 0.5))
	o.note("goodput %d of %d arrivals done within %.1fs of due; refused %d; deduped %d",
		good, len(subs), latencyLimit, refused, deduped)
	o.note("queue wait n=%d p50 %.4fs p95 %.4fs; run p50 guardband n=%d %.4fs, sweep n=%d %.4fs, min-energy n=%d %.4fs",
		len(waits), quantile(waits, 0.5), quantile(waits, 0.95),
		len(runs[jobs.KindGuardband]), quantile(runs[jobs.KindGuardband], 0.5),
		len(runs[jobs.KindSweep]), quantile(runs[jobs.KindSweep], 0.5),
		len(runs[jobs.KindMinEnergy]), quantile(runs[jobs.KindMinEnergy], 0.5))
	o.note("generator lateness n=%d p95 %.3fms", len(late), quantile(late, 0.95))
}

// checkGuardbandSample re-derives a seeded sample of served guardband
// results directly (flow.Implementation.Guardband on a fresh context,
// outside the timed window) and requires them to be equal.
func checkGuardbandSample(o *outcome, subs []submission, seed int64) {
	var idx []int
	for i, s := range subs {
		if s.spec.Kind == jobs.KindGuardband && s.view.State == jobs.StateDone {
			idx = append(idx, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	idx = idx[:min(gbSamples, len(idx))]
	c := experiments.NewContext(harnessScale)
	for _, i := range idx {
		s := subs[i]
		served, ok := s.view.Result.(experiments.BenchResult)
		if !ok {
			continue // already reported as an unexpected result type
		}
		im, err := c.Implementation(s.spec.Benchmark)
		if err != nil {
			o.violate(arrival(i), "direct check: %v", err)
			continue
		}
		res, err := im.Guardband(guardband.DefaultOptions(s.spec.AmbientC))
		if err != nil {
			o.violate(arrival(i), "direct check: %v", err)
			continue
		}
		direct := experiments.BenchResult{
			Name: s.spec.Benchmark, GainPct: res.GainPct,
			FmaxMHz: res.FmaxMHz, BaselineMHz: res.BaselineMHz,
			Iterations: res.Iterations, RiseC: res.RiseC, SpreadC: res.SpreadC,
			Converged: res.Converged,
		}
		if benchLine(direct) != benchLine(served) {
			o.violate(arrival(i), "served %q differs from direct %q", benchLine(served), benchLine(direct))
		}
	}
	o.note("direct guardband check: %d sampled results equal", len(idx))
}
