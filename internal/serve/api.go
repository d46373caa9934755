// Package serve turns the ParaCrash checker into a long-running service:
// an HTTP API accepting exploration and fuzz-campaign jobs, a bounded FIFO
// scheduler running them with per-job timeouts, cancellation and panic
// isolation, a results store persisting completed jobs as versioned JSON,
// and per-job progress streaming over the internal/obs event sinks.
//
// The package deliberately amortises nothing *inside* the engine — every
// job still gets a fresh simulated cluster, exactly like the CLI — but a
// daemon amortises process setup, keeps one admission-controlled queue in
// front of the CPU, and makes results durable and listable across
// restarts. cmd/paracrashd is the daemon binary; `paracrash -remote`
// submits to it.
package serve

import (
	"fmt"
	"strings"
	"time"

	"paracrash/internal/exps"
	core "paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// JobVersion is the schema version of persisted job records; bump on
// incompatible changes to Job or JobRequest.
const JobVersion = 1

// Job kinds.
const (
	// JobKindExplore is one explorer run: program × file system × options.
	JobKindExplore = "explore"
	// JobKindFuzz is a metamorphic fuzz campaign (internal/fuzzcamp).
	JobKindFuzz = "fuzz"
)

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
	// Kind selects the job type: "explore" (default) or "fuzz".
	Kind string `json:"kind,omitempty"`

	// Explore fields (ignored for fuzz jobs).

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
	// Workers is the per-job exploration worker budget; the scheduler
	// clamps it to its per-job maximum. 0 (or omitted) means one per CPU.
	Workers int `json:"workers,omitempty"`
	// Shards requests a fleet partition width for this explore job: the
	// coordinator splits the crash-state space into this many shards for
	// worker processes to claim. 0 keeps the daemon's default; values are
	// capped by the daemon's maximum, and a daemon running standalone (no
	// fleet) executes the job in-process regardless. Explore jobs only.
	Shards int `json:"shards,omitempty"`
	// Clients/Rows/Cols/ResizeRows/ResizeCols are the H5 program knobs;
	// zero values keep workloads.DefaultH5Params.
	Clients    int `json:"clients,omitempty"`
	Rows       int `json:"rows,omitempty"`
	Cols       int `json:"cols,omitempty"`
	ResizeRows int `json:"resize_rows,omitempty"`
	ResizeCols int `json:"resize_cols,omitempty"`

	// Fuzz configures a fuzz-campaign job (required when Kind is "fuzz").
	Fuzz *FuzzRequest `json:"fuzz,omitempty"`

	// TimeoutSeconds bounds the job's run time; 0 uses the scheduler's
	// default, and the scheduler's maximum always applies.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// FuzzRequest mirrors the fuzzcamp.Config knobs exposed over the API.
type FuzzRequest struct {
	// Backends under test; empty means all six.
	Backends []string `json:"backends,omitempty"`
	// Seeds/SeedStart select the generated workloads.
	Seeds     int   `json:"seeds,omitempty"`
	SeedStart int64 `json:"seed_start,omitempty"`
	// EnumOps additionally enumerates all op sequences up to this length.
	EnumOps int `json:"enum_ops,omitempty"`
}

// Normalize fills defaults and validates the request, returning a
// client-error (HTTP 400) description on invalid input.
func (r *JobRequest) Normalize() error {
	switch r.Kind {
	case "":
		r.Kind = JobKindExplore
	case JobKindExplore, JobKindFuzz:
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", r.Kind, JobKindExplore, JobKindFuzz)
	}
	if r.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be >= 0, got %g", r.TimeoutSeconds)
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", r.Workers)
	}
	if r.Shards < 0 {
		return fmt.Errorf("shards must be >= 0, got %d", r.Shards)
	}

	if r.Kind == JobKindFuzz {
		if r.Fuzz == nil {
			r.Fuzz = &FuzzRequest{}
		}
		if r.Fuzz.Seeds < 0 || r.Fuzz.EnumOps < 0 {
			return fmt.Errorf("fuzz seeds and enum_ops must be >= 0")
		}
		for _, b := range r.Fuzz.Backends {
			if !validFS(b) {
				return fmt.Errorf("unknown fuzz backend %q (have %s)", b, strings.Join(exps.FSNames(), ", "))
			}
		}
		return nil
	}

	if r.FS == "" {
		r.FS = "beegfs"
	}
	if !validFS(r.FS) {
		return fmt.Errorf("unknown file system %q (have %s)", r.FS, strings.Join(exps.FSNames(), ", "))
	}
	if r.Program == "" {
		r.Program = "ARVR"
	}
	if _, err := exps.ProgramByName(r.Program); err != nil {
		return fmt.Errorf("unknown program %q", r.Program)
	}
	if r.Mode == "" {
		r.Mode = core.ModePruning.String()
	} else if _, err := core.ParseMode(r.Mode); err != nil {
		return fmt.Errorf("mode: %v", err)
	}
	if r.PFSModel != "" {
		if _, err := core.ParseModel(r.PFSModel); err != nil {
			return fmt.Errorf("pfs_model: %v", err)
		}
	}
	if r.LibModel != "" {
		if _, err := core.ParseModel(r.LibModel); err != nil {
			return fmt.Errorf("lib_model: %v", err)
		}
	}
	if r.K < 0 {
		return fmt.Errorf("k must be >= 0, got %d", r.K)
	}
	return nil
}

// options materialises the exploration Options for a normalized explore
// request. maxWorkers caps the per-job worker budget (0 = no cap).
func (r *JobRequest) options(maxWorkers int) core.Options {
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
	if r.K > 0 {
		opts.Emulator.K = r.K
	}
	opts.Workers = r.Workers // 0 or omitted = one per CPU, whatever DefaultOptions says
	if maxWorkers > 0 && (opts.Workers == 0 || opts.Workers > maxWorkers) {
		opts.Workers = maxWorkers
	}
	return opts
}

// h5Params materialises the H5 program knobs for a normalized request.
func (r *JobRequest) h5Params() workloads.H5Params {
	p := workloads.DefaultH5Params()
	if r.Clients > 0 {
		p.Clients = r.Clients
	}
	if r.Rows > 0 {
		p.Rows = r.Rows
	}
	if r.Cols > 0 {
		p.Cols = r.Cols
	}
	if r.ResizeRows > 0 {
		p.ResizeRows = r.ResizeRows
	}
	if r.ResizeCols > 0 {
		p.ResizeCols = r.ResizeCols
	}
	return p
}

func validFS(name string) bool {
	for _, n := range exps.FSNames() {
		if n == name {
			return true
		}
	}
	return false
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
	// finding it interrupted by an unclean shutdown; explore jobs resume
	// from their checkpoint journal.
	Resumes int `json:"resumes,omitempty"`
	// Error describes a failed or canceled job.
	Error string `json:"error,omitempty"`
	// Report is the explore-job result.
	Report *core.Report `json:"report,omitempty"`
	// Fuzz is the fuzz-job result.
	Fuzz *FuzzResult `json:"fuzz,omitempty"`
}

// FuzzResult is the persisted summary of a fuzz-campaign job: the
// campaign's formatted report plus the headline numbers (the full
// fuzzcamp.Result carries non-JSON-stable internals, so jobs persist this
// stable projection instead).
type FuzzResult struct {
	OK           bool   `json:"ok"`
	Workloads    int    `json:"workloads"`
	Cells        int    `json:"cells"`
	CellsSkipped int    `json:"cells_skipped,omitempty"`
	ExplorerRuns int64  `json:"explorer_runs"`
	Violations   int    `json:"violations"`
	TimedOut     bool   `json:"timed_out,omitempty"`
	Canceled     bool   `json:"canceled,omitempty"`
	Summary      string `json:"summary"`
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
