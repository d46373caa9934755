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
//
// The flags that describe the run fill a paracrashd job request, which a
// local run executes as the daemon would: they mean the same either way.
//
// Exit status: 0 when the run found no bug, 1 when it found bugs, 2 on a
// refused command line or a failed run, and 3 when it found no bug but
// quarantined crash states, so it is incomplete.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/serve"
)

// invocation is what the command line resolves to: the job request a
// local and a -remote run both read, how the report is printed, and the
// settings only a local run reads.
type invocation struct {
	req              serve.JobRequest
	remote, apiKey   string
	jsonOut, verbose bool
	// remoteFlags are the request's and the client's flags; any other flag
	// set beside -remote is refused, as the daemon would never see it.
	remoteFlags map[string]bool

	servers                                                int
	stripe                                                 int64
	list, progress                                         bool
	dumpPath, resumePath, metricsPath, progJSON, pprofAddr string
	spec                                                   exps.Spec // a local run's, set by resolve
}

// requestFlags is the one table of the flags a job request carries, each
// bound to its JobRequest field. A flag is named as its JSON field, with
// dashes for underscores.
func requestFlags(fl *flag.FlagSet, r *serve.JobRequest) {
	fl.StringVar(&r.FS, "fs", "beegfs", "file system under test (beegfs, orangefs, glusterfs, gpfs, lustre, ext4)")
	fl.StringVar(&r.Program, "program", "ARVR", "test program (see -list)")
	fl.StringVar(&r.Mode, "mode", "pruning", "exploration strategy: brute, pruning")
	fl.StringVar(&r.PFSModel, "pfs-model", "causal", "PFS consistency model: strict, commit, causal, baseline")
	fl.StringVar(&r.LibModel, "lib-model", "baseline", "I/O library consistency model")
	fl.IntVar(&r.K, "k", 1, "max victims per crash front (Algorithm 1's k)")
	fl.IntVar(&r.Shards, "shards", 0, "with -remote: ask the daemon to split this job across its worker fleet into this many shards (0 = daemon default)")
	fl.IntVar(&r.Clients, "clients", 2, "MPI ranks for the parallel programs")
	fl.IntVar(&r.Rows, "rows", 4, "preamble dataset rows (0 = the default)")
	fl.IntVar(&r.Cols, "cols", 4, "preamble dataset cols (0 = the default)")
	fl.IntVar(&r.ResizeRows, "resize-rows", 8, "H5-resize target rows (0 = the default)")
	fl.IntVar(&r.ResizeCols, "resize-cols", 8, "H5-resize target cols (0 = the default)")
}

// newInvocation registers every flag on fl: the request's and the client's
// first, which makes them the remote flags, then the local-only ones.
func newInvocation(fl *flag.FlagSet) *invocation {
	inv := &invocation{remoteFlags: map[string]bool{}}
	requestFlags(fl, &inv.req)
	fl.StringVar(&inv.remote, "remote", "", "submit the run as a job to a paracrashd at this address (e.g. localhost:7077) instead of exploring locally")
	fl.StringVar(&inv.apiKey, "api-key", "", "API key for a multi-tenant paracrashd (with -remote); also honours the PARACRASH_API_KEY environment variable")
	fl.BoolVar(&inv.jsonOut, "json", false, "emit the report as JSON")
	fl.BoolVar(&inv.verbose, "v", false, "also print each inconsistent crash state")
	fl.VisitAll(func(f *flag.Flag) { inv.remoteFlags[f.Name] = true })

	fl.IntVar(&inv.servers, "servers", 0, "override total server count (0 = paper default)")
	fl.Int64Var(&inv.stripe, "stripe", 0, "override stripe size in bytes (0 = default)")
	fl.BoolVar(&inv.list, "list", false, "list programs and file systems, then exit")
	fl.StringVar(&inv.dumpPath, "dump-trace", "", "write the traced execution as JSON to this file instead of testing")
	fl.StringVar(&inv.resumePath, "resume", "", "checkpoint journal path: journal verdicts there and resume from it on restart")
	fl.StringVar(&inv.metricsPath, "metrics", "", "write the run's observability summary (phase timings, counters, gauges) as JSON to this file")
	fl.BoolVar(&inv.progress, "progress", false, "print a one-line progress ticker to stderr every second")
	fl.StringVar(&inv.progJSON, "progress-jsonl", "", "write machine-readable progress events (one JSON object per line) to this file")
	fl.StringVar(&inv.pprofAddr, "pprof", "", "serve net/http/pprof, /debug/obs and /metrics on this address (e.g. localhost:6060)")
	return inv
}

// resolve validates the parsed flags: the request through Normalize, as the
// daemon does, then a local run's own settings. Errors name the flag.
func (inv *invocation) resolve(fl *flag.FlagSet) error {
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fl.Args(), " "))
	}
	if inv.remote == "" && (inv.req.Shards != 0 || inv.apiKey != "") {
		return errors.New("-shards and -api-key only apply with -remote")
	}
	var local []string
	fl.Visit(func(f *flag.Flag) {
		if inv.remote != "" && !inv.remoteFlags[f.Name] {
			local = append(local, "-"+f.Name)
		}
	})
	if len(local) > 0 {
		return fmt.Errorf("local-only flags cannot combine with -remote: %s", strings.Join(local, ", "))
	}
	// A request reads a zero k or clients as the default; a command line
	// that says 0 is refused instead.
	if inv.req.K < 1 {
		return fmt.Errorf("-k must be >= 1 (victims per crash front), got %d", inv.req.K)
	}
	if inv.req.Clients < 1 {
		return fmt.Errorf("-clients must be >= 1, got %d", inv.req.Clients)
	}
	if err := inv.req.Normalize(); err != nil {
		return inv.flagError(err)
	}
	if inv.remote != "" {
		return nil
	}
	inv.spec, _ = inv.req.Spec() // Normalize has accepted the program
	var err error
	if inv.spec.Config, err = exps.WithServers(inv.spec.Config, inv.servers); err != nil {
		return fmt.Errorf("-%v (-fs %s)", err, inv.req.FS)
	}
	switch {
	case inv.stripe < 0:
		return fmt.Errorf("-stripe must be >= 0 (0 = default), got %d", inv.stripe)
	case inv.stripe > 0:
		inv.spec.Config.StripeSize = inv.stripe
	}
	return nil
}

// flagError names the request field a Normalize error starts with by the
// flag that sets it (the field pfs_model is the flag -pfs-model).
func (inv *invocation) flagError(err error) error {
	msg := err.Error()
	field := msg[:strings.IndexAny(msg+" ", " :")]
	if name := strings.ReplaceAll(field, "_", "-"); inv.remoteFlags[name] {
		return errors.New("-" + name + msg[len(field):])
	}
	return err
}

func main() {
	inv := newInvocation(flag.CommandLine)
	flag.Parse()
	fatalIf(inv.resolve(flag.CommandLine))
	if inv.list {
		fmt.Println("file systems:", strings.Join(exps.FSNames(), ", "))
		fmt.Println("programs:    ", strings.Join(exps.ProgramNames(), ", "))
		return
	}
	if inv.dumpPath != "" {
		dump, err := inv.spec.TraceJSON()
		fatalIf(err)
		fatalIf(os.WriteFile(inv.dumpPath, dump, 0o644))
		fmt.Printf("trace written to %s\n", inv.dumpPath)
		return
	}
	run := inv.runLocal
	if inv.remote != "" {
		run = inv.runRemote
	}
	rep, err := run()
	fatalIf(err)
	printReport(rep, inv.jsonOut, inv.verbose)
	code := exitCode(rep)
	if code == 3 {
		fmt.Fprintf(os.Stderr, "paracrash: %d crash states quarantined; the run is incomplete\n", len(rep.Skipped))
	}
	os.Exit(code)
}

// exitCode is the status a finished run exits with: 1 when it found bugs,
// 3 when it found none but quarantined crash states (it judged less than
// it generated, so it cannot call itself clean), and 0 otherwise. Exit
// status 2 is a refused command line or a failed run (fatalIf).
func exitCode(rep *core.Report) int {
	switch {
	case len(rep.Bugs) > 0:
		return 1
	case len(rep.Skipped) > 0:
		return 3
	}
	return 0
}

// runLocal explores the request in this process, reporting what the run
// counted, resumed and capped on stderr and in the -metrics file.
func (inv *invocation) runLocal() (*core.Report, error) {
	opts := &inv.spec.Options
	if inv.resumePath != "" {
		opts.Checkpoint = core.OpenCheckpoint(inv.resumePath)
	}

	// One observability run, always attached (a capped enumeration shows
	// only in its counters); the outputs below read it when asked for.
	run := obs.NewRun()
	opts.Obs = run
	// Progress: follow the run every second; stopping writes the final
	// event and waits for it, so it precedes the report.
	stopProgress := func() {}
	if inv.progress || inv.progJSON != "" {
		var jsonl *json.Encoder
		if inv.progJSON != "" {
			f, err := os.Create(inv.progJSON)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			jsonl = json.NewEncoder(f)
		}
		write := func(ev obs.Event) {
			if inv.progress {
				fmt.Fprintln(os.Stderr, ev)
			}
			if jsonl != nil {
				_ = jsonl.Encode(ev)
			}
		}
		stopProgress = obs.Follow(time.Second, run.Event, write)
	}
	if inv.pprofAddr != "" {
		addr, shutdown, err := obs.Serve(inv.pprofAddr, run)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "paracrash: diagnostics at http://%s/debug/pprof/ (also /debug/obs, /metrics)\n", addr)
	}

	rep, err := inv.spec.Run(context.Background())
	stopProgress()
	if err != nil {
		return nil, err
	}
	for _, line := range capWarnings(run, opts.Emulator) {
		fmt.Fprintln(os.Stderr, "paracrash:", line)
	}
	if ckpt := opts.Checkpoint; ckpt != nil {
		fmt.Fprintf(os.Stderr, "paracrash: checkpoint %s: resumed %d verdicts\n", ckpt.Path(), ckpt.Resumed())
		for _, warn := range ckpt.Warnings() {
			fmt.Fprintln(os.Stderr, "paracrash: checkpoint warning:", warn)
		}
	}
	if inv.metricsPath != "" {
		out, err := run.SummaryJSON()
		if err == nil {
			err = os.WriteFile(inv.metricsPath, out, 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printReport prints a finished run's report, local or remote alike.
func printReport(rep *core.Report, jsonOut, verbose bool) {
	if jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		fatalIf(err)
		fmt.Println(string(out))
		return
	}
	fmt.Print(rep.Format())
	if verbose {
		for i, st := range rep.States {
			fmt.Printf("state %d [%s]: victims=%v\n  %s\n", i+1, st.Layer, st.Victims, st.Consequence)
		}
		for i, sk := range rep.Skipped {
			fmt.Printf("skipped %d: victims=%v\n  %s\n", i+1, sk.Victims, sk.Reason)
		}
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
