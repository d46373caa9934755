// Fsck: the daemon runs the same kind of crash-consistency check on its
// own state directory that the engine runs on simulated file systems. A
// state directory is a bag of independently-written records (job files,
// leases, shard tasks and results, checkpoint journals), and an unclean
// death can leave it with exactly the debris classes bounded black-box
// crash testing predicts: orphan temp files from interrupted atomic
// replaces, torn records from interrupted creates, torn journal tails from
// interrupted appends, and cross-record staleness (shard files outliving
// their merged job, leases outliving their owner).
//
// Fsck scans for every class, classifies each finding, and — in repair
// mode — either repairs it (reconstructible state: temp files, leases,
// shard tasks/results, journal tails) or quarantines it (state that cannot
// be reconstructed and must not be silently dropped: job records, whole
// journals with unreadable headers, shard files whose owning job record is
// gone). The report is machine-readable; the daemon exports its counters
// on /metrics and reflects quarantines in /healthz and /readyz so a
// wounded daemon degrades visibly instead of serving garbage.
// `make selfcheck` proves the pass sufficient: for every statefs crash
// point, kill → fsck → restart recovers to a byte-identical report.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	core "paracrash/internal/paracrash"
	"paracrash/internal/statefs"
)

// FsckVersion is the schema version of FsckReport.
const FsckVersion = 1

// QuarantineDirName is the subdirectory of the state dir that quarantined
// records are moved into.
const QuarantineDirName = "quarantine"

// Fsck problem categories.
const (
	// ProblemOrphanTmp is a leftover temp file from an interrupted atomic
	// replace. Repair: remove (the destination record is intact).
	ProblemOrphanTmp = "orphan-tmp"
	// ProblemTornJobRecord is a job record that does not parse — the torn
	// file a crash mid-create leaves. Repair: quarantine (a job record is
	// not reconstructible and may still identify lost work).
	ProblemTornJobRecord = "torn-job-record"
	// ProblemVersionSkew is a job record with a different schema version.
	// Repair: quarantine.
	ProblemVersionSkew = "version-skew"
	// ProblemMalformedLease is a lease file that does not parse (a worker
	// died mid-create). Repair: remove — a missing lease just means the
	// task is claimable, which is also true of a dead claimant's task.
	ProblemMalformedLease = "malformed-lease"
	// ProblemStaleLease is a lease past its deadline (its owner died and
	// no one reclaimed the task yet). Repair: remove.
	ProblemStaleLease = "stale-lease"
	// ProblemDamagedShardTask is a shard task that does not parse or has
	// a skewed version. Repair: remove — the coordinator rewrites tasks
	// idempotently on resubmission.
	ProblemDamagedShardTask = "damaged-shard-task"
	// ProblemDamagedShardResult is a shard result that does not parse or
	// has a skewed version. Repair: remove — the worker recomputes the
	// shard from its checkpoint journal.
	ProblemDamagedShardResult = "damaged-shard-result"
	// ProblemTornJournalTail is a checkpoint journal with a torn tail (a
	// crash mid-append): a damaged record, or a last record without its
	// newline. Repair: rewrite to what core.ReadJournal keeps — every
	// record before the damage, and a complete unterminated last record.
	ProblemTornJournalTail = "torn-journal-tail"
	// ProblemDuplicateJournalRecord is a checkpoint journal carrying the
	// same verdict key twice. Repair: rewrite deduplicated (first
	// occurrence wins, matching resume semantics) so no verdict can ever
	// be double-counted.
	ProblemDuplicateJournalRecord = "duplicate-journal-record"
	// ProblemUnreadableJournal is a checkpoint journal whose header line
	// does not parse. Repair: quarantine the whole file.
	ProblemUnreadableJournal = "unreadable-journal"
	// ProblemStaleShardFiles is fleet debris (task, result, checkpoint or
	// lease) for a job whose record is already terminal — the coordinator
	// died between the merge and its cleanup. Repair: remove.
	ProblemStaleShardFiles = "stale-shard-files"
	// ProblemOrphanShardFiles is fleet debris whose owning job has no
	// record at all. Repair: quarantine tasks/results/journals (they may
	// witness work whose job record was lost) and remove leases.
	ProblemOrphanShardFiles = "orphan-shard-files"
)

// Fsck actions.
const (
	// ActionDetected marks a dry-run finding: nothing was changed.
	ActionDetected = "detected"
	// ActionRemoved marks a repaired finding whose file was deleted.
	ActionRemoved = "removed"
	// ActionRewritten marks a journal repaired in place.
	ActionRewritten = "rewritten"
	// ActionQuarantined marks a file moved into the quarantine directory.
	ActionQuarantined = "quarantined"
)

// FsckOptions configures a state-directory check.
type FsckOptions struct {
	// Repair applies repairs and quarantines; false is a read-only scan
	// whose problems all carry ActionDetected.
	Repair bool
	// Now is the clock for lease-expiry checks (zero value = time.Now).
	Now time.Time
}

// FsckProblem is one finding: what is wrong with which file, and what
// fsck did about it.
type FsckProblem struct {
	// Path is the offending file, relative to the state directory.
	Path string `json:"path"`
	// Category is one of the Problem* constants.
	Category string `json:"category"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail"`
	// Action is one of the Action* constants.
	Action string `json:"action"`
}

// FsckReport is the machine-readable result of one state-directory check.
type FsckReport struct {
	// Version is the report schema version (FsckVersion).
	Version int `json:"version"`
	// Dir is the checked state directory.
	Dir string `json:"dir"`
	// Repair records whether repairs were applied or this was a dry run.
	Repair bool `json:"repair"`
	// Scanned counts the directory entries examined.
	Scanned int `json:"scanned"`
	// Problems lists every finding, sorted by path then category.
	Problems []FsckProblem `json:"problems,omitempty"`
	// Repaired counts removed and rewritten findings.
	Repaired int `json:"repaired"`
	// Quarantined counts findings moved to the quarantine directory.
	Quarantined int `json:"quarantined"`
	// Clean is true when no problems were found.
	Clean bool `json:"clean"`
}

// Degraded reports whether the check left unreconstructible state behind:
// a daemon with quarantined records serves what it has but fails /readyz
// so orchestrators stop routing new work at it.
func (r *FsckReport) Degraded() bool { return r.Quarantined > 0 }

// Summary renders the one-line operator view.
func (r *FsckReport) Summary() string {
	if r.Clean {
		return fmt.Sprintf("fsck: %s clean (%d entries)", r.Dir, r.Scanned)
	}
	return fmt.Sprintf("fsck: %s: %d problem(s), %d repaired, %d quarantined (repair=%t)",
		r.Dir, len(r.Problems), r.Repaired, r.Quarantined, r.Repair)
}

// fsck is the working state of one check.
type fsck struct {
	dir  string
	opts FsckOptions
	rep  *FsckReport

	// jobs maps parsed job IDs to terminality, for cross-record checks.
	jobs map[string]bool
}

// Fsck checks (and in repair mode, repairs) the daemon's state directory.
// A missing or empty directory is clean. The error return is for I/O
// failures of the scan itself; findings — however bad — are report
// content, never an error, because a daemon must be able to start from
// any wreckage.
func Fsck(dir string, opts FsckOptions) (*FsckReport, error) {
	if opts.Now.IsZero() {
		opts.Now = time.Now()
	}
	f := &fsck{
		dir:  dir,
		opts: opts,
		rep:  &FsckReport{Version: FsckVersion, Dir: dir, Repair: opts.Repair},
		jobs: map[string]bool{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			f.rep.Clean = true
			return f.rep, nil
		}
		return nil, fmt.Errorf("serve: fsck %s: %w", dir, err)
	}

	// Pass 1: per-file integrity, and the job-record index the
	// cross-record pass needs.
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f.rep.Scanned++
		f.checkFile(name)
	}

	// Pass 2: cross-record staleness — fleet debris whose owning job is
	// terminal or gone.
	for _, name := range names {
		f.checkOwnership(name)
	}

	sort.Slice(f.rep.Problems, func(a, b int) bool {
		pa, pb := f.rep.Problems[a], f.rep.Problems[b]
		if pa.Path != pb.Path {
			return pa.Path < pb.Path
		}
		return pa.Category < pb.Category
	})
	f.rep.Clean = len(f.rep.Problems) == 0
	return f.rep, nil
}

// checkFile classifies one directory entry and repairs per-file damage.
func (f *fsck) checkFile(name string) {
	path := filepath.Join(f.dir, name)
	switch {
	case strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, ".ckpt-"):
		f.remove(name, ProblemOrphanTmp, "leftover temp file from an interrupted atomic replace")
	case strings.HasPrefix(name, "job-") && strings.HasSuffix(name, ".json"):
		var j Job
		data, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(data, &j) != nil || j.ID == "" {
			f.quarantine(name, ProblemTornJobRecord, "job record does not parse")
			return
		}
		if j.Version != JobVersion {
			f.quarantine(name, ProblemVersionSkew, fmt.Sprintf("job record has schema version %d, want %d", j.Version, JobVersion))
			return
		}
		f.jobs[j.ID] = j.State.Terminal()
	case strings.HasPrefix(name, "lease-") && strings.HasSuffix(name, ".json"):
		var l Lease
		data, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(data, &l) != nil || l.Task == "" {
			f.remove(name, ProblemMalformedLease, "lease file does not parse (claimant died mid-create)")
			return
		}
		if l.Expired(f.opts.Now) {
			f.remove(name, ProblemStaleLease, fmt.Sprintf("lease by %s expired %s", l.Owner, l.Expires.Format(time.RFC3339)))
		}
	case strings.HasPrefix(name, "task-") && strings.HasSuffix(name, ".json"):
		if _, ok := readShardTask(path); !ok {
			f.remove(name, ProblemDamagedShardTask, "shard task does not parse or has a skewed version")
		}
	case strings.HasPrefix(name, "result-") && strings.HasSuffix(name, ".json"):
		var r ShardResult
		data, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(data, &r) != nil || r.Job == "" || r.Version != FleetVersion {
			f.remove(name, ProblemDamagedShardResult, "shard result does not parse or has a skewed version")
		}
	case strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".jsonl"):
		f.checkJournal(name)
	}
}

// checkJournal reads a checkpoint journal with the engine's own reader
// (core.ReadJournal), so fsck and resume agree on what is damage: an
// unparsable header quarantines the file; a torn tail or duplicate records
// rewrite it to what the reader keeps.
func (f *fsck) checkJournal(name string) {
	path := filepath.Join(f.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		f.quarantine(name, ProblemUnreadableJournal, fmt.Sprintf("journal unreadable: %v", err))
		return
	}
	if len(data) == 0 {
		return // an empty journal is a fresh start, not damage
	}
	j, err := core.ReadJournal(data)
	if err != nil {
		f.quarantine(name, ProblemUnreadableJournal, err.Error())
		return
	}
	if j.Torn != "" {
		f.problem(name, ProblemTornJournalTail, j.Torn, ActionRewritten)
	}
	if j.Duplicates > 0 {
		f.problem(name, ProblemDuplicateJournalRecord,
			fmt.Sprintf("%d duplicated verdict record(s); keeping first occurrences", j.Duplicates), ActionRewritten)
	}
	if (j.Torn != "" || j.Duplicates > 0) && f.opts.Repair {
		if err := statefs.WriteBytes(siteFsckRewrite, path, j.Bytes()); err != nil {
			f.problem(name, ProblemUnreadableJournal, fmt.Sprintf("rewrite failed: %v", err), ActionDetected)
		}
	}
}

// checkOwnership flags fleet debris whose owning job record is terminal
// (stale) or missing (orphan). Job records themselves and already-removed
// files are skipped.
func (f *fsck) checkOwnership(name string) {
	job, kind := ownerOf(name)
	if job == "" {
		return
	}
	if _, err := os.Stat(filepath.Join(f.dir, name)); os.IsNotExist(err) {
		return // pass 1 already removed or quarantined it
	}
	terminal, known := f.jobs[job]
	switch {
	case known && terminal:
		f.remove(name, ProblemStaleShardFiles,
			fmt.Sprintf("%s outlives terminal job %s (coordinator died between merge and cleanup)", kind, job))
	case !known:
		if kind == "lease" {
			// Leases are transient claims; with no job to claim for, drop.
			f.remove(name, ProblemOrphanShardFiles, fmt.Sprintf("lease for unknown job %s", job))
			return
		}
		f.quarantine(name, ProblemOrphanShardFiles,
			fmt.Sprintf("%s belongs to unknown job %s (its record may have been lost)", kind, job))
	}
}

// ownerOf extracts the owning job ID and record kind from a fleet or
// journal file name; job is "" for names that have no owner (job records,
// temp files, foreign files).
func ownerOf(name string) (job, kind string) {
	for _, r := range []struct{ prefix, suffix, kind string }{
		{"task-", ".json", "shard task"},
		{"result-", ".json", "shard result"},
		{"ckpt-", ".jsonl", "checkpoint journal"},
		{"lease-", ".json", "lease"},
	} {
		if !strings.HasPrefix(name, r.prefix) || !strings.HasSuffix(name, r.suffix) {
			continue
		}
		// Fleet records are <job>-shard-<i>; a standalone journal is <job>.
		base := strings.TrimSuffix(strings.TrimPrefix(name, r.prefix), r.suffix)
		if job, ok := jobOfLeaseTask(base); ok {
			return job, r.kind
		}
		if r.kind != "lease" {
			return base, r.kind
		}
	}
	return "", ""
}

// problem records one finding; action is downgraded to ActionDetected on
// dry runs.
func (f *fsck) problem(name, category, detail, action string) {
	if !f.opts.Repair {
		action = ActionDetected
	}
	f.rep.Problems = append(f.rep.Problems, FsckProblem{Path: name, Category: category, Detail: detail, Action: action})
	switch action {
	case ActionRemoved, ActionRewritten:
		f.rep.Repaired++
	case ActionQuarantined:
		f.rep.Quarantined++
	}
}

// remove repairs a finding by deleting the file.
func (f *fsck) remove(name, category, detail string) {
	if f.opts.Repair {
		if err := os.Remove(filepath.Join(f.dir, name)); err != nil && !os.IsNotExist(err) {
			f.problem(name, category, fmt.Sprintf("%s (remove failed: %v)", detail, err), ActionDetected)
			return
		}
	}
	f.problem(name, category, detail, ActionRemoved)
}

// quarantine moves a finding into the quarantine directory (unique name,
// durable rename) so it is out of the daemon's way but not destroyed.
func (f *fsck) quarantine(name, category, detail string) {
	if f.opts.Repair {
		qdir := filepath.Join(f.dir, QuarantineDirName)
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			f.problem(name, category, fmt.Sprintf("%s (quarantine failed: %v)", detail, err), ActionDetected)
			return
		}
		dst := filepath.Join(qdir, name)
		for i := 1; ; i++ {
			if _, err := os.Stat(dst); os.IsNotExist(err) {
				break
			}
			dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
		}
		if err := statefs.Rename(siteFsckQuarantine, filepath.Join(f.dir, name), dst); err != nil {
			f.problem(name, category, fmt.Sprintf("%s (quarantine failed: %v)", detail, err), ActionDetected)
			return
		}
	}
	f.problem(name, category, detail, ActionQuarantined)
}
