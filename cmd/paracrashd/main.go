// Command paracrashd runs the ParaCrash checker as a service: an HTTP API
// accepting exploration jobs, a bounded scheduler executing them with
// per-job timeouts and cancellation, and a results directory where
// completed jobs persist as versioned JSON across restarts.
//
// Usage:
//
//	paracrashd -addr localhost:7077 -results ./results
//	curl -X POST localhost:7077/v1/jobs -d '{"fs":"beegfs","program":"ARVR"}'
//	curl localhost:7077/v1/jobs/<id>
//	curl -N localhost:7077/v1/jobs/<id>/events
//	curl localhost:7077/metrics
//
// On SIGINT/SIGTERM the daemon drains: new submissions are rejected with
// 503 while in-flight jobs run to completion (bounded by -drain-timeout,
// after which they are cancelled), then the process exits.
//
// Every start runs a repairing fsck over the results directory before the
// store loads, so an unclean death (the very failure this tool studies)
// never leaves the daemon serving torn state: reconstructible debris is
// repaired, anything else is quarantined — reflected on /healthz, failed
// on /readyz. The same check runs standalone:
//
//	paracrashd -fsck -results ./results           # read-only scan, JSON report
//	paracrashd -fsck -repair -results ./results   # apply repairs/quarantines
//
// Fleet mode splits the daemon into roles sharing one results directory
// (any shared file system works — no RPC fabric needed):
//
//	paracrashd -role coordinator -results /pfs/results -shards 4
//	paracrashd -role worker -results /pfs/results -worker-id w1 -addr localhost:7078
//	paracrashd -role worker -results /pfs/results -worker-id w2 -addr localhost:7079
//
// The coordinator partitions explore jobs into shards; workers claim
// shards via leases, judge them (journaling verdicts so a dead worker's
// shard resumes where it stopped), and the coordinator merges the results
// into a report with the standalone run's verdicts. Every role serves its
// own run on -addr: a worker's /metrics, /debug/obs and pprof pages are
// scraped like a daemon's. -tenants arms multi-tenant
// authentication, quotas, rate limits and priority scheduling; see
// docs/OPERATIONS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paracrash/internal/obs"
	"paracrash/internal/serve"
	"paracrash/internal/statefs"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:7077", "HTTP listen address (a worker serves only /metrics, /debug/obs and pprof there)")
		resultsDir   = flag.String("results", "", "directory for persisted job results (empty = in-memory only)")
		maxJobs      = flag.Int("max-jobs", 2, "jobs running concurrently")
		queueDepth   = flag.Int("queue-depth", 16, "queued jobs before submissions get 429")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "default per-job timeout (0 = none)")
		maxTimeout   = flag.Duration("max-job-timeout", time.Hour, "cap on any job's timeout (0 = no cap)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs before cancelling them")

		role      = flag.String("role", "standalone", "process role: standalone, coordinator (shard explore jobs across workers) or worker (claim and judge shards)")
		shards    = flag.Int("shards", 0, "coordinator: default shard count per explore job (a job may request its own; < 2 runs in-process)")
		maxShards = flag.Int("max-shards", 16, "coordinator: cap on any job's requested shard count")
		fleetPoll = flag.Duration("fleet-poll", 0, "fleet fallback poll cadence, for when no directory-change event arrives: coordinator result check / worker task listing (0 = role default)")
		leaseTTL  = flag.Duration("lease-ttl", 3*time.Second, "worker: shard lease time-to-live; a dead worker's shard is reclaimed after at most this long")
		heartbeat = flag.Duration("heartbeat", 0, "worker: lease renewal cadence (0 = lease-ttl/3)")
		workerID  = flag.String("worker-id", "", "worker: identity in leases and shard results (default worker-<pid>)")

		tenantsPath = flag.String("tenants", "", "tenant configuration file (JSON); arms API keys, quotas, rate limits and priority scheduling")

		fsckOnly = flag.Bool("fsck", false, "check the -results state directory for crash damage, print the JSON report and exit (0 clean, 1 problems); no daemon is started")
		repair   = flag.Bool("repair", false, "with -fsck: apply repairs and quarantines instead of a read-only scan")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "paracrashd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *maxJobs < 1 || *queueDepth < 1 {
		fatalf("-max-jobs and -queue-depth must be >= 1 (got %d, %d)", *maxJobs, *queueDepth)
	}
	if *jobTimeout < 0 || *maxTimeout < 0 || *drainTimeout < 0 {
		fatalf("timeouts must be >= 0")
	}
	if *shards < 0 || *maxShards < 1 {
		fatalf("-shards must be >= 0 and -max-shards >= 1 (got %d, %d)", *shards, *maxShards)
	}
	if *leaseTTL <= 0 || *heartbeat < 0 || *fleetPoll < 0 {
		fatalf("-lease-ttl must be > 0; -heartbeat and -fleet-poll must be >= 0")
	}
	if *repair && !*fsckOnly {
		fatalf("-repair only applies with -fsck (the daemon always repairs on startup)")
	}

	// One-shot fsck mode: scan (and with -repair, fix) the state directory,
	// print the machine-readable report and exit without starting a daemon.
	if *fsckOnly {
		if *resultsDir == "" {
			fatalf("-fsck requires -results (the state directory to check)")
		}
		rep, err := serve.Fsck(*resultsDir, serve.FsckOptions{Repair: *repair})
		if err != nil {
			fatalf("%v", err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(data))
		fmt.Fprintln(os.Stderr, "paracrashd:", rep.Summary())
		if !rep.Clean {
			os.Exit(1)
		}
		return
	}

	if *role == "worker" {
		runWorker(*addr, *resultsDir, *workerID, *leaseTTL, *heartbeat, *fleetPoll)
		return
	}
	if *role != "standalone" && *role != "coordinator" {
		fatalf("unknown -role %q (want standalone, coordinator or worker)", *role)
	}

	var tenants *serve.Tenants
	if *tenantsPath != "" {
		var terr error
		tenants, terr = serve.LoadTenants(*tenantsPath)
		if terr != nil {
			fatalf("%v", terr)
		}
		fmt.Fprintf(os.Stderr, "paracrashd: multi-tenancy on (%d tenants)\n", len(tenants.Names()))
	}

	run := obs.NewRun()
	statefs.SetObs(run)
	run.Gauge("statefs/crash-points").Set(int64(len(statefs.CrashPoints())))

	// Recover the state directory before the store reads it: remove or
	// quarantine whatever an unclean death left behind, so the daemon never
	// builds its world view on torn records. Quarantines degrade /readyz.
	var fsckReport *serve.FsckReport
	if *resultsDir != "" {
		var ferr error
		fsckReport, ferr = serve.Fsck(*resultsDir, serve.FsckOptions{Repair: true})
		if ferr != nil {
			fatalf("startup fsck: %v", ferr)
		}
		fmt.Fprintln(os.Stderr, "paracrashd:", fsckReport.Summary())
		run.Counter("fsck/problems").Add(int64(len(fsckReport.Problems)))
		run.Counter("fsck/repaired").Add(int64(fsckReport.Repaired))
		run.Counter("fsck/quarantined").Add(int64(fsckReport.Quarantined))
	}

	store, warns := serve.OpenStore(*resultsDir)
	for _, w := range warns {
		fmt.Fprintln(os.Stderr, "paracrashd: warning:", w)
	}

	cfg := serve.SchedulerConfig{
		MaxConcurrent:  *maxJobs,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		Tenants:        tenants,
	}
	if *role == "coordinator" {
		if *resultsDir == "" {
			fatalf("-role coordinator requires -results (the shared fleet directory)")
		}
		cfg.Fleet = &serve.FleetConfig{Shards: *shards, MaxShards: *maxShards, Poll: *fleetPoll}
	}

	sched := serve.NewScheduler(cfg, store, run)
	sched.Start()

	// Re-enqueue jobs a previous daemon left queued or running: each resumes
	// from its checkpoint journal. A job of the retired fuzz kind is marked
	// failed instead, and the warning says why.
	for _, j := range store.Interrupted() {
		if err := sched.Resubmit(j.ID); err != nil {
			fmt.Fprintf(os.Stderr, "paracrashd: warning: resubmit interrupted job %s: %v\n", j.ID, err)
		} else {
			fmt.Fprintf(os.Stderr, "paracrashd: resubmitted interrupted job %s\n", j.ID)
		}
	}

	api := serve.NewServer(sched, store, run)
	api.SetFsck(fsckReport)
	srv := &http.Server{Addr: *addr, Handler: api}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	loaded := len(store.List())
	fmt.Fprintf(os.Stderr, "paracrashd: %s listening on %s (results=%q, %d persisted jobs loaded, %d slots, queue %d, /metrics exposed)\n",
		*role, *addr, *resultsDir, loaded, *maxJobs, *queueDepth)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "paracrashd: %v: draining (up to %v)\n", sig, *drainTimeout)
	case err := <-errc:
		fatalf("serve: %v", err)
	}

	// Drain first — the HTTP listener stays up so status queries and event
	// streams keep working while in-flight jobs finish — then shut down.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := sched.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "paracrashd: drain expired, in-flight jobs cancelled: %v\n", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(shutCtx)
	fmt.Fprintln(os.Stderr, "paracrashd: stopped")
}

// runWorker is the -role worker main loop: claim shard leases in the
// shared directory, judge shards, write results, until SIGINT/SIGTERM,
// serving the worker's run on addr.
func runWorker(addr, dir, id string, leaseTTL, heartbeat, poll time.Duration) {
	if dir == "" {
		fatalf("-role worker requires -results (the shared fleet directory)")
	}
	run := obs.NewRun()
	statefs.SetObs(run)
	bound, shutdown, err := obs.Serve(addr, run)
	if err != nil {
		fatalf("%v", err)
	}
	defer shutdown()
	w, err := serve.NewFleetWorker(serve.FleetWorkerConfig{
		Dir: dir, ID: id,
		LeaseTTL: leaseTTL, Heartbeat: heartbeat, Poll: poll,
		Obs: run,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "paracrashd: worker %s scanning %s (lease-ttl %v, /metrics on %s)\n", w.ID(), dir, leaseTTL, bound)
	_ = w.Run(ctx)
	// A signal cancels the loop mid-shard at worst: the lease is released (or
	// expires) and another worker resumes the shard from its journal.
	fmt.Fprintf(os.Stderr, "paracrashd: worker %s stopped\n", w.ID())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "paracrashd: "+format+"\n", args...)
	os.Exit(2)
}
