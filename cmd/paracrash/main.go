// Command paracrash runs one test program against one simulated parallel
// file system and prints the crash-consistency report — the CLI face of
// the testing framework.
//
// Usage:
//
//	paracrash -fs beegfs -program ARVR
//	paracrash -fs lustre -program H5-resize -mode brute -k 2
//	paracrash -fs gpfs -program CDF-create -pfs-model causal -lib-model baseline
//	paracrash -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/serve"
	"paracrash/internal/workloads"
)

func main() {
	var (
		fsName   = flag.String("fs", "beegfs", "file system under test (beegfs, orangefs, glusterfs, gpfs, lustre, ext4)")
		progName = flag.String("program", "ARVR", "test program (see -list)")
		mode     = flag.String("mode", "pruning", "exploration strategy: brute, pruning")
		pfsModel = flag.String("pfs-model", "causal", "PFS consistency model: strict, commit, causal, baseline")
		libModel = flag.String("lib-model", "baseline", "I/O library consistency model")
		k        = flag.Int("k", 1, "max victims per crash front (Algorithm 1's k)")
		workers  = flag.Int("workers", 1, "parallel exploration workers (1 = serial, the default; 0 = one per CPU)")
		servers  = flag.Int("servers", 0, "override total server count (0 = paper default)")
		stripe   = flag.Int64("stripe", 0, "override stripe size in bytes (0 = default)")
		clients  = flag.Int("clients", 2, "MPI ranks for the parallel programs")
		rows     = flag.Int("rows", 4, "preamble dataset rows")
		cols     = flag.Int("cols", 4, "preamble dataset cols")
		rrows    = flag.Int("resize-rows", 8, "H5-resize target rows")
		rcols    = flag.Int("resize-cols", 8, "H5-resize target cols")
		verbose  = flag.Bool("v", false, "also print each inconsistent crash state")
		list     = flag.Bool("list", false, "list programs and file systems, then exit")
		dumpPath = flag.String("dump-trace", "", "write the traced execution as JSON to this file instead of testing")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")

		remote = flag.String("remote", "", "submit the run as a job to a paracrashd at this address (e.g. localhost:7077) instead of exploring locally")
		apiKey = flag.String("api-key", "", "API key for a multi-tenant paracrashd (with -remote); also honours the PARACRASH_API_KEY environment variable")
		shards = flag.Int("shards", 0, "with -remote: ask the daemon to split this job across its worker fleet into this many shards (0 = daemon default)")

		retries      = flag.Int("retries", 0, "max attempts per crash-state check before quarantining it (0 = default 3)")
		retryBackoff = flag.Duration("retry-backoff", 0, "base backoff between check retries (0 = default 2ms)")
		resumePath   = flag.String("resume", "", "checkpoint journal path: journal verdicts there and resume from it on restart")
		faultSeed    = flag.Int64("fault-seed", 0, "fault-injection seed (with -fault-rate)")
		faultRate    = flag.Float64("fault-rate", 0, "inject faults into the engine's own I/O with this probability in [0,1] (0 = off)")

		metricsPath = flag.String("metrics", "", "write the run's observability summary (phase timings, counters, gauges) as JSON to this file")
		progress    = flag.Bool("progress", false, "print a one-line progress ticker to stderr every second")
		progJSONL   = flag.String("progress-jsonl", "", "write machine-readable progress events (one JSON object per line) to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof, /debug/obs and /metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "paracrash: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fatalIf(fmt.Errorf("-workers must be >= 0 (0 = one per CPU, 1 = serial), got %d", *workers))
	}
	if *k < 1 {
		fatalIf(fmt.Errorf("-k must be >= 1 (victims per crash front), got %d", *k))
	}
	if *servers < 0 {
		fatalIf(fmt.Errorf("-servers must be >= 0 (0 = paper default), got %d", *servers))
	}
	if *stripe < 0 {
		fatalIf(fmt.Errorf("-stripe must be >= 0 (0 = default), got %d", *stripe))
	}
	h5p := workloads.DefaultH5Params()
	h5p.Clients = *clients
	h5p.Rows, h5p.Cols = *rows, *cols
	h5p.ResizeRows, h5p.ResizeCols = *rrows, *rcols
	if err := h5p.Validate(); err != nil {
		fatalIf(fmt.Errorf("-%v", err))
	}
	if *retries < 0 {
		fatalIf(fmt.Errorf("-retries must be >= 0 (0 = default), got %d", *retries))
	}
	if *retryBackoff < 0 {
		fatalIf(fmt.Errorf("-retry-backoff must be >= 0 (0 = default), got %v", *retryBackoff))
	}
	if *faultRate < 0 || *faultRate > 1 {
		fatalIf(fmt.Errorf("-fault-rate must be in [0,1], got %g", *faultRate))
	}
	exploreMode, err := core.ParseMode(*mode)
	fatalIf(err)

	if *list {
		fmt.Println("file systems:", strings.Join(exps.FSNames(), ", "))
		fmt.Print("programs:     ")
		var names []string
		for _, p := range exps.Programs() {
			names = append(names, p.Name)
		}
		fmt.Println(strings.Join(names, ", "))
		return
	}

	prog, err := exps.ProgramByName(*progName)
	fatalIf(err)

	if *shards < 0 {
		fatalIf(fmt.Errorf("-shards must be >= 0, got %d", *shards))
	}
	if *remote == "" && (*shards > 0 || *apiKey != "") {
		fatalIf(fmt.Errorf("-shards and -api-key only apply with -remote"))
	}
	if *remote != "" {
		var local []string
		flag.Visit(func(f *flag.Flag) {
			if !slices.Contains(remoteFlags, f.Name) {
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			fatalIf(fmt.Errorf("local-only flags cannot combine with -remote: %s", strings.Join(local, ", ")))
		}
		key := *apiKey
		if key == "" {
			key = os.Getenv("PARACRASH_API_KEY")
		}
		os.Exit(runRemote(*remote, key, serve.JobRequest{
			Kind: serve.JobKindExplore,
			FS:   *fsName, Program: *progName, Mode: *mode,
			PFSModel: *pfsModel, LibModel: *libModel,
			K: *k, Workers: *workers, Shards: *shards,
			Clients: *clients, Rows: *rows, Cols: *cols,
			ResizeRows: *rrows, ResizeCols: *rcols,
		}, *jsonOut, *verbose))
	}

	opts := core.DefaultOptions()
	opts.Emulator.K = *k
	opts.Workers = *workers
	opts.Mode = exploreMode
	opts.PFSModel, err = core.ParseModel(*pfsModel)
	fatalIf(err)
	opts.LibModel, err = core.ParseModel(*libModel)
	fatalIf(err)
	opts.Retry = core.RetryPolicy{MaxAttempts: *retries, Backoff: *retryBackoff}
	if *faultRate > 0 {
		opts.Faults = faultinject.New(faultinject.Config{Seed: *faultSeed, Rate: *faultRate})
	}
	var ckpt *core.Checkpoint
	if *resumePath != "" {
		ckpt = core.OpenCheckpoint(*resumePath)
		opts.Checkpoint = ckpt
	}

	// Observability: one run per invocation. It is always attached — a
	// capped enumeration is reported through its counters and nowhere else —
	// while progress, the endpoint and the metrics file read it only when
	// asked for.
	run := obs.NewRun()
	opts.Obs = run
	// Progress: follow the run every second; stopping writes the final
	// event and waits for it, so it precedes the report.
	stopProgress := func() {}
	if *progress || *progJSONL != "" {
		var jsonl *json.Encoder
		if *progJSONL != "" {
			f, err := os.Create(*progJSONL)
			fatalIf(err)
			defer f.Close()
			jsonl = json.NewEncoder(f)
		}
		write := func(ev obs.Event) {
			if *progress {
				fmt.Fprintln(os.Stderr, ev)
			}
			if jsonl != nil {
				_ = jsonl.Encode(ev)
			}
		}
		stopProgress = obs.Follow(time.Second, run.Event, write)
	}
	if *pprofAddr != "" {
		addr, shutdown, err := obs.Serve(*pprofAddr, run)
		fatalIf(err)
		defer shutdown()
		fmt.Fprintf(os.Stderr, "paracrash: diagnostics at http://%s/debug/pprof/ (also /debug/obs, /metrics)\n", addr)
	}

	conf := exps.ConfigFor(*fsName)
	if *servers > 0 {
		if conf.MetaServers > 0 {
			conf.MetaServers = *servers / 2
			conf.StorageServers = *servers - *servers/2
		} else {
			conf.StorageServers = *servers
		}
	}
	if *stripe > 0 {
		conf.StripeSize = *stripe
	}

	if *dumpPath != "" {
		dump, err := exps.TraceJSON(*fsName, prog, h5p, conf)
		fatalIf(err)
		fatalIf(os.WriteFile(*dumpPath, dump, 0o644))
		fmt.Printf("trace written to %s\n", *dumpPath)
		return
	}

	rep, err := exps.RunOne(*fsName, prog, opts, h5p, conf)
	stopProgress()
	fatalIf(err)
	for _, line := range capWarnings(run, opts.Emulator) {
		fmt.Fprintln(os.Stderr, "paracrash:", line)
	}
	if ckpt != nil {
		fmt.Fprintf(os.Stderr, "paracrash: checkpoint %s: resumed %d verdicts", ckpt.Path(), ckpt.Resumed())
		if w := ckpt.Warnings(); len(w) > 0 {
			fmt.Fprintf(os.Stderr, " (%d warnings)", len(w))
			for _, warn := range w {
				fmt.Fprintf(os.Stderr, "\nparacrash: checkpoint warning: %v", warn)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	if *metricsPath != "" {
		out, err := run.SummaryJSON()
		fatalIf(err)
		fatalIf(os.WriteFile(*metricsPath, out, 0o644))
	}

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		fatalIf(err)
		fmt.Println(string(out))
		if len(rep.Bugs) > 0 {
			os.Exit(1)
		}
		return
	}

	fmt.Print(rep.Format())
	if *verbose {
		for i, st := range rep.States {
			fmt.Printf("state %d [%s]: victims=%v\n  %s\n", i+1, st.Layer, st.Victims, st.Consequence)
		}
		for i, sk := range rep.Skipped {
			fmt.Printf("skipped %d: victims=%v\n  %s\n", i+1, sk.Victims, sk.Reason)
		}
	}
	if len(rep.Bugs) > 0 {
		os.Exit(1)
	}
}

// capWarnings names the enumeration caps the run hit. A capped run's report
// looks exactly like an exhaustive one's; only the emulator's counters tell.
func capWarnings(run *obs.Run, cfg core.EmulatorConfig) []string {
	var out []string
	if run.Counter("emulate/states-capped").Value() > 0 {
		out = append(out, fmt.Sprintf("crash-state enumeration stopped at MaxStates=%d with states left; the report covers only those", cfg.MaxStates))
	}
	if run.Counter("emulate/fronts-capped").Value() > 0 {
		out = append(out, fmt.Sprintf("crash-front enumeration stopped at MaxFronts=%d with fronts left; the report covers only those", cfg.MaxFronts))
	}
	return out
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracrash:", err)
		os.Exit(2)
	}
}
