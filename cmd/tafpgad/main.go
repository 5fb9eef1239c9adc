// Command tafpgad serves guardband and experiment runs over HTTP: jobs are
// submitted as JSON specs, queued FIFO into a bounded worker pool,
// deduplicated by canonical content key, and observable while they run via
// an NDJSON event stream and a Prometheus /metrics endpoint.
//
//	tafpgad [flags]
//
// Flags:
//
//	-addr a        listen address (default :8080)
//	-scale f       benchmark scale relative to the published sizes (default 1/16)
//	-w n           router channel-width override (default: Table I's 320)
//	-effort f      placement effort (default 1.0)
//	-bench csv     restrict figure jobs to a comma-separated benchmark list
//	-parallel n    per-job benchmark fan-out workers (0 = GOMAXPROCS)
//	-workers n     concurrent jobs (default 1)
//	-queue n       queued-job bound before 429s (default 64)
//	-ttl d         how long finished jobs stay retrievable (default 15m)
//	-flowcache d   on-disk place-and-route cache shared across jobs and runs
//	-drain d       graceful-shutdown budget before running jobs are
//	               hard-cancelled (default 10m)
//	-state-dir d   durable job state: jobs are journaled to d/journal.ndjson
//	               and recovered after a crash or restart (default: none,
//	               jobs are in-memory only)
//	-retries n     attempts per job for transient failures (default 3;
//	               1 disables retry)
//	-retry-base d  base retry backoff, doubled per attempt (default 500ms)
//	-retry-max d   retry backoff cap (default 30s)
//	-faults s      fault-injection spec "point=prob[:limit],..." for crash
//	               and retry testing (also via TAFPGA_FAULTS)
//	-faults-seed n deterministic seed for -faults (default 1)
//
// Fleet flags:
//
//	-replica s     this replica's name in the fleet (default: hostname)
//	-peers csv     fleet members as "name=url,..." — enables HTTP peer fill
//	               of the flow cache (a local miss asks the key's HRW owner
//	               before rebuilding)
//	-route         run as the cluster router instead of a replica: forward
//	               POST /v1/jobs to each spec's HRW owner (failing over down
//	               the ranking), proxy job reads and event streams, fan out
//	               listings across -peers
//
// Submit, watch, and cancel:
//
//	curl -s localhost:8080/v1/jobs -d '{"kind":"guardband","benchmark":"sha","ambient_c":25}'
//	curl -s localhost:8080/v1/jobs/j-000001/events
//	curl -s -X DELETE localhost:8080/v1/jobs/j-000001
//
// SIGINT or SIGTERM drains: new submissions are refused, queued and running
// jobs finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tafpga/internal/cluster"
	"tafpga/internal/faults"
	"tafpga/internal/jobs"
	"tafpga/internal/obs"
	"tafpga/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 1.0/16, "benchmark scale")
	width := flag.Int("w", 0, "router channel-width override (0 = Table I)")
	effort := flag.Float64("effort", 1.0, "placement effort")
	benchCSV := flag.String("bench", "", "comma-separated benchmark subset for figure jobs")
	parallel := flag.Int("parallel", 0, "per-job benchmark fan-out workers (0 = GOMAXPROCS)")
	routeWorkers := flag.Int("route-workers", 0, "PathFinder search workers per flow build; byte-identical results (0 = GOMAXPROCS, 1 = serial)")
	workers := flag.Int("workers", 1, "concurrent jobs")
	queue := flag.Int("queue", 64, "queued-job bound")
	ttl := flag.Duration("ttl", 15*time.Minute, "finished-job retention")
	flowcache := flag.String("flowcache", "", "directory for the on-disk place-and-route cache")
	drain := flag.Duration("drain", 10*time.Minute, "graceful-shutdown budget for running jobs")
	stateDir := flag.String("state-dir", "", "directory for the durable job journal (empty = in-memory only)")
	retries := flag.Int("retries", 3, "attempts per job for transient failures (1 = no retry)")
	retryBase := flag.Duration("retry-base", 500*time.Millisecond, "base retry backoff (doubled per attempt)")
	retryMax := flag.Duration("retry-max", 30*time.Second, "retry backoff cap")
	faultSpec := flag.String("faults", "", `fault-injection spec "point=prob[:limit],..." (testing)`)
	faultSeed := flag.Int64("faults-seed", 1, "seed for -faults")
	replica := flag.String("replica", "", "this replica's fleet name (default: hostname)")
	peersCSV := flag.String("peers", "", `fleet members as "name=url,..." (enables flow-cache peer fill)`)
	route := flag.Bool("route", false, "run as the cluster router over -peers instead of a replica")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tafpgad: "+format+"\n", args...)
	}

	if *replica == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			*replica = host
		} else {
			*replica = "tafpgad"
		}
	}

	if *route {
		runRouter(*addr, *replica, *peersCSV, logf)
		return
	}

	// Fault injection: the flag wins over the environment so a test harness
	// can override a stale TAFPGA_FAULTS.
	if *faultSpec != "" {
		if err := faults.Enable(*faultSpec, *faultSeed); err != nil {
			logf("bad -faults: %v", err)
			os.Exit(2)
		}
		logf("fault injection enabled: %s (seed %d)", *faultSpec, *faultSeed)
	} else if err := faults.EnableFromEnv(); err != nil {
		logf("bad TAFPGA_FAULTS: %v", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	reg.GaugeL("tafpgad_build_info",
		"Process identity; the value is always 1 — the information rides in the labels.",
		fmt.Sprintf("replica=%q,addr=%q,role=%q,go=%q", *replica, *addr, "replica", runtime.Version())).Set(1)

	cfg := jobs.RunnerConfig{
		Scale:         *scale,
		ChannelTracks: *width,
		PlaceEffort:   *effort,
		BenchWorkers:  *parallel,
		RouteWorkers:  *routeWorkers,
		FlowCacheDir:  *flowcache,
	}
	if *benchCSV != "" {
		cfg.Benchmarks = strings.Split(*benchCSV, ",")
	}
	runner := jobs.NewRunner(cfg)

	// Fleet cache fill: a local flow-cache miss asks the key's HRW owner
	// (then the rest of the ranking) for its raw gob entry before paying a
	// rebuild. Corrupt or torn payloads are rejected by the cache layer and
	// never adopted, so a bad peer cannot poison the local store.
	if *peersCSV != "" {
		ring, err := cluster.ParseRing(*peersCSV)
		if err != nil {
			logf("bad -peers: %v", err)
			os.Exit(2)
		}
		peerFetch := reg.Counter("tafpgad_cache_peer_fetches_total", "Peer cache-fill HTTP requests issued on local misses.")
		peerHits := reg.Counter("tafpgad_cache_peer_hits_total", "Local flow-cache misses served by a fleet peer.")
		peerErrs := reg.Counter("tafpgad_cache_peer_errors_total", "Peer cache-fill requests that failed at transport level.")
		peerClient := &http.Client{Timeout: 10 * time.Second}
		self := *replica
		runner.Cache().SetPeerFill(func(key string) ([]byte, error) {
			for _, rep := range ring.Rank(key) {
				if rep.Name == self {
					continue // the local miss is already established
				}
				peerFetch.Inc()
				resp, err := peerClient.Get(rep.URL + "/v1/cache/" + key)
				if err != nil {
					peerErrs.Inc()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue
				}
				raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
				resp.Body.Close()
				if err != nil {
					peerErrs.Inc()
					continue
				}
				peerHits.Inc()
				return raw, nil
			}
			return nil, fmt.Errorf("no fleet peer holds %s", key)
		})
		logf("flow-cache peer fill enabled across %d fleet member(s)", len(ring.Replicas()))
	}

	// Durable state: with -state-dir, every job transition is journaled and
	// a restart replays the journal — finished results come back without
	// recompute, interrupted jobs re-enter the queue.
	var journal *jobs.Journal
	if *stateDir != "" {
		var err error
		journal, err = jobs.OpenJournal(*stateDir)
		if err != nil {
			logf("state dir: %v", err)
			os.Exit(1)
		}
		defer journal.Close()
	}

	mgr := jobs.New(runner.Run, jobs.Options{
		Workers:  *workers,
		MaxQueue: *queue,
		TTL:      *ttl,
		Registry: reg,
		Journal:  journal,
		Retry: jobs.RetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *retryBase,
			MaxBackoff:  *retryMax,
		},
	})
	if journal != nil {
		restored, requeued := mgr.RecoveryStats()
		logf("journal %s: %d finished job(s) restored, %d interrupted job(s) requeued",
			journal.Path(), restored, requeued)
	}
	srv := server.New(mgr, reg)
	srv.ServeCache(runner.Cache())
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Serve immediately; /readyz flips once the device library is warm so
	// the first job does not pay the sizing latency.
	go func() {
		start := time.Now()
		if err := runner.Warm(); err != nil {
			logf("warmup failed: %v", err)
			os.Exit(1)
		}
		srv.SetReady(true)
		logf("ready: device library warm in %v", time.Since(start).Round(time.Millisecond))
	}()

	// TTL janitor: Submit sweeps lazily, this catches idle periods.
	stopJanitor := make(chan struct{})
	go func() {
		t := time.NewTicker(*ttl / 2)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				mgr.EvictExpired()
			case <-stopJanitor:
				return
			}
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logf("listening on %s (scale %g, %d worker(s), queue %d)", *addr, *scale, *workers, *queue)

	select {
	case err := <-errCh:
		logf("serve: %v", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	// Graceful drain: unready first so load balancers stop routing here,
	// then let queued and running jobs finish (event streams close with
	// their jobs), then close idle HTTP connections.
	logf("signal received, draining (budget %v)", *drain)
	srv.SetDraining(true)
	close(stopJanitor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		logf("drain: hard-cancelled running jobs: %v", err)
	} else {
		logf("drained cleanly")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed
	logf("bye")
}

// runRouter serves the fleet front-end: the same /v1 surface as a replica,
// forwarded across -peers by rendezvous hashing on job content keys.
func runRouter(addr, name, peersCSV string, logf func(string, ...any)) {
	if peersCSV == "" {
		logf("-route requires -peers")
		os.Exit(2)
	}
	ring, err := cluster.ParseRing(peersCSV)
	if err != nil {
		logf("bad -peers: %v", err)
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	reg.GaugeL("tafpgad_build_info",
		"Process identity; the value is always 1 — the information rides in the labels.",
		fmt.Sprintf("replica=%q,addr=%q,role=%q,go=%q", name, addr, "router", runtime.Version())).Set(1)
	rt := cluster.NewRouter(ring, cluster.RouterOptions{Registry: reg})
	httpSrv := &http.Server{Addr: addr, Handler: rt.Handler()}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logf("routing on %s across %d replica(s)", addr, len(ring.Replicas()))

	select {
	case err := <-errCh:
		logf("serve: %v", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	stop()
	logf("signal received, shutting down router")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	<-errCh
	logf("bye")
}
