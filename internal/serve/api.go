// Package serve turns the ParaCrash checker into a long-running service:
// an HTTP API accepting exploration jobs, a bounded FIFO scheduler running
// them with per-job timeouts, cancellation and panic isolation, a results
// store persisting completed jobs as versioned JSON, and per-job progress
// streams read from each job's internal/obs run.
//
// The package deliberately amortises nothing *inside* the engine — every
// job still gets a fresh simulated cluster, exactly like the CLI — but a
// daemon amortises process setup, keeps one admission-controlled queue in
// front of the CPU, and makes results durable and listable across
// restarts. cmd/paracrashd is the daemon binary; `paracrash -remote`
// submits to it.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"paracrash/internal/exps"
	core "paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// JobVersion is the schema version of persisted job records; bump on
// incompatible changes to Job or JobRequest.
const JobVersion = 1

// JobKindExplore is the one job kind: an explorer run of program × file
// system × options.
const JobKindExplore = "explore"

// retiredFuzzKind is the job kind that ran a fuzz campaign in the daemon.
// Records that carry it still load; a new request naming it is refused,
// and an interrupted one is finished as failed (errFuzzRetired).
const retiredFuzzKind = "fuzz"

var errFuzzRetired = errors.New(`job kind "fuzz" is retired: run fuzz campaigns with cmd/experiments -exp fuzz`)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Terminal states (done, failed, canceled) are
// persisted to the results directory.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether a job in state s has finished for good.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobRequest is the POST /v1/jobs payload.
type JobRequest struct {
	// Kind is the job type; "explore" (the default) is the only one.
	Kind string `json:"kind,omitempty"`

	// FS is the backend under test (beegfs, orangefs, glusterfs, gpfs,
	// lustre, ext4). Default beegfs.
	FS string `json:"fs,omitempty"`
	// Program is the test program name (see exps.Programs). Default ARVR.
	Program string `json:"program,omitempty"`
	// Mode is the exploration strategy: brute or pruning (default), as
	// paracrash.ParseMode names them.
	Mode string `json:"mode,omitempty"`
	// PFSModel / LibModel are consistency-model names (strict, commit,
	// causal, baseline); defaults mirror paracrash.DefaultOptions.
	PFSModel string `json:"pfs_model,omitempty"`
	LibModel string `json:"lib_model,omitempty"`
	// K is Algorithm 1's victims-per-front bound (default 1).
	K int `json:"k,omitempty"`
	// Workers is accepted, validated >= 0 and ignored: exploration is
	// serial, and a job is spread over processes with Shards.
	Workers int `json:"workers,omitempty"`
	// Shards requests a fleet partition width for this explore job: the
	// coordinator splits the crash-state space into this many shards for
	// worker processes to claim. 0 keeps the daemon's default; values are
	// capped by the daemon's maximum, and a daemon running standalone (no
	// fleet) executes the job in-process regardless.
	Shards int `json:"shards,omitempty"`
	// Clients/Rows/Cols/ResizeRows/ResizeCols are the H5 program knobs;
	// zero values keep workloads.DefaultH5Params, and the rest must pass
	// workloads.H5Params.Validate.
	Clients    int `json:"clients,omitempty"`
	Rows       int `json:"rows,omitempty"`
	Cols       int `json:"cols,omitempty"`
	ResizeRows int `json:"resize_rows,omitempty"`
	ResizeCols int `json:"resize_cols,omitempty"`

	// TimeoutSeconds bounds the job's run time; 0 uses the scheduler's
	// default, and the scheduler's maximum always applies.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Normalize fills defaults and validates the request, returning a
// client-error (HTTP 400) description on invalid input.
func (r *JobRequest) Normalize() error {
	switch r.Kind {
	case "":
		r.Kind = JobKindExplore
	case JobKindExplore:
	case retiredFuzzKind:
		return errFuzzRetired
	default:
		return fmt.Errorf("unknown job kind %q (want %q)", r.Kind, JobKindExplore)
	}
	if r.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be >= 0, got %g", r.TimeoutSeconds)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"workers", r.Workers}, {"shards", r.Shards}, {"k", r.K},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	if err := r.h5Params().Validate(); err != nil {
		return err
	}
	if r.FS == "" {
		r.FS = "beegfs"
	}
	if !slices.Contains(exps.FSNames(), r.FS) {
		return fmt.Errorf("unknown file system %q (have %s)", r.FS, strings.Join(exps.FSNames(), ", "))
	}
	if r.Program == "" {
		r.Program = "ARVR"
	}
	if _, err := exps.ProgramByName(r.Program); err != nil {
		return fmt.Errorf("unknown program %q (have %s)", r.Program, strings.Join(exps.ProgramNames(), ", "))
	}
	if r.Mode == "" {
		r.Mode = core.ModePruning.String()
	} else if _, err := core.ParseMode(r.Mode); err != nil {
		return fmt.Errorf("mode: %v", err)
	}
	for _, m := range [][2]string{{"pfs_model", r.PFSModel}, {"lib_model", r.LibModel}} {
		if _, err := core.ParseModel(m[1]); m[1] != "" && err != nil {
			return fmt.Errorf("%s: %v", m[0], err)
		}
	}
	return nil
}

// Spec assembles a normalized request into its run. It is the one path
// from a request to the engine: the scheduler, a fleet worker's shard, the
// coordinator's merge and the paracrash command's local run all take it, so
// a request means the same run wherever it runs. The caller adds what a run
// does not fingerprint (Obs, Checkpoint).
func (r *JobRequest) Spec() (exps.Spec, error) {
	prog, err := exps.ProgramByName(r.Program)
	if err != nil {
		return exps.Spec{}, err
	}
	return exps.Spec{FS: r.FS, Program: prog, Options: r.options(), H5: r.h5Params(), Config: exps.ConfigFor(r.FS)}, nil
}

// options materialises the exploration Options for a normalized explore
// request.
func (r *JobRequest) options() core.Options {
	opts := core.DefaultOptions()
	// Read the mode as stored data: a job record or shard task written
	// before a mode was retired still resolves (and never to the zero Mode;
	// a name that does not parse keeps the default).
	_ = opts.Mode.UnmarshalText([]byte(r.Mode))
	if r.PFSModel != "" {
		opts.PFSModel, _ = core.ParseModel(r.PFSModel)
	}
	if r.LibModel != "" {
		opts.LibModel, _ = core.ParseModel(r.LibModel)
	}
	opts.Emulator.K = cmp.Or(r.K, opts.Emulator.K)
	return opts
}

// h5Params materialises the H5 program knobs: a zero knob keeps its
// default, any other value is taken as given.
func (r *JobRequest) h5Params() workloads.H5Params {
	p := workloads.DefaultH5Params()
	p.Clients, p.Rows, p.Cols = cmp.Or(r.Clients, p.Clients), cmp.Or(r.Rows, p.Rows), cmp.Or(r.Cols, p.Cols)
	p.ResizeRows, p.ResizeCols = cmp.Or(r.ResizeRows, p.ResizeRows), cmp.Or(r.ResizeCols, p.ResizeCols)
	return p
}

// Job is one submitted job's full record. Terminal jobs are persisted as
// versioned JSON in the results directory and survive daemon restarts.
type Job struct {
	Version int        `json:"version"`
	ID      string     `json:"id"`
	State   JobState   `json:"state"`
	Request JobRequest `json:"request"`
	// Tenant is the submitting tenant's name (empty for open-mode jobs).
	// Tenants only see their own jobs over the API.
	Tenant     string     `json:"tenant,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Resumes counts how many times the daemon re-enqueued this job after
	// finding it interrupted by an unclean shutdown; the job resumes from
	// its checkpoint journal.
	Resumes int `json:"resumes,omitempty"`
	// Error describes a failed or canceled job.
	Error string `json:"error,omitempty"`
	// Report is the job's result.
	Report *core.Report `json:"report,omitempty"`
}

// JobSummary is the list-view projection of a job (GET /v1/jobs).
type JobSummary struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	State      JobState   `json:"state"`
	FS         string     `json:"fs,omitempty"`
	Program    string     `json:"program,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      string     `json:"error,omitempty"`
}

// Summary projects the job onto its list view.
func (j *Job) Summary() JobSummary {
	return JobSummary{
		ID: j.ID, Kind: j.Request.Kind, State: j.State,
		FS: j.Request.FS, Program: j.Request.Program,
		CreatedAt: j.CreatedAt, FinishedAt: j.FinishedAt,
		Error: j.Error,
	}
}
