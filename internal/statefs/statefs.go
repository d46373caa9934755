// Package statefs is the single audited persistence layer of the daemon's
// state plane: every durable write the service makes — job records, lease
// files, shard tasks and results, checkpoint journals — goes through one of
// its three disciplines instead of ad-hoc os calls:
//
//   - OpAtomic: temp file in the target directory, write, fsync, rename
//     over the destination, fsync the parent directory.
//   - OpExclusive: O_EXCL create (the cross-process mutual-exclusion
//     primitive), write, fsync, fsync the parent directory.
//   - OpJournal: append to an existing journal, fsync before returning, so
//     a record is durable before it is acknowledged.
//
// Funnelling every write through here buys two things. First, the
// discipline is implemented once and audited once — the class of bug this
// project exists to find (missing parent-directory fsync, ack-before-flush
// journals, non-atomic replace) cannot quietly reappear at a new call
// site, and internal/tools/persistlint enforces the funnel mechanically.
// Second, every write site becomes a named crash point: each stage of each
// discipline can simulate the machine dying right there — leaving a torn
// temp file, a fully-written-but-unrenamed temp, a renamed file whose
// directory entry was never synced, a half-appended journal record — and
// exit the process, so the daemon's own recovery path (serve.Fsck, store
// reload, lease reclaim, checkpoint resume) is testable with the same
// bounded black-box crash testing the checker applies to file systems.
// The `make selfcheck` harness enumerates CrashPoints and kills a live
// daemon at every one of them.
//
// Crash points are armed through the environment (EnvCrashPoint names a
// "<site>@<stage>" point, EnvCrashHit selects which traversal fires) so a
// re-exec harness can drive them without code hooks.
package statefs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"paracrash/internal/obs"
)

// CrashExitCode is the exit status of a process killed at an armed crash
// point, distinct from ordinary failures so harnesses can tell "crashed
// where I asked" from "died of something else".
const CrashExitCode = 86

// Environment variables arming a crash point in this process.
const (
	// EnvCrashPoint names the point to crash at, as "<site>@<stage>"
	// (see CrashPoints for the catalogue).
	EnvCrashPoint = "PARACRASH_CRASHPOINT"
	// EnvCrashHit selects which traversal of the point fires (1-based,
	// default 1): "3" crashes the third time the point is reached.
	EnvCrashHit = "PARACRASH_CRASHPOINT_HIT"
)

// Op enumerates the durable-write disciplines statefs implements. Each op
// kind has a fixed set of crash-point stages (Stages).
type Op int

// The write disciplines.
const (
	// OpAtomic is temp + write + fsync + rename + parent-dir fsync.
	OpAtomic Op = iota
	// OpExclusive is O_EXCL create + write + fsync + parent-dir fsync.
	OpExclusive
	// OpJournal is append-to-journal + fsync (ack after flush).
	OpJournal
	// OpRename is a plain rename + parent-dir fsync (recovery moves).
	OpRename
)

// String names the op kind.
func (o Op) String() string {
	switch o {
	case OpAtomic:
		return "atomic"
	case OpExclusive:
		return "exclusive"
	case OpJournal:
		return "journal"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Stage names, shared across ops. Each stage's simulated post-crash disk
// state is documented where the op implements it.
const (
	// StageTornTmp dies mid-write of the temp file: a partial temp file
	// exists, the destination is untouched.
	StageTornTmp = "torn-tmp"
	// StagePreRename dies after the temp file is durable but before the
	// rename: a complete temp file exists, the destination is untouched.
	StagePreRename = "pre-rename"
	// StagePostRename dies after the rename but before the parent
	// directory fsync: the destination carries the new content (the other
	// legal outcome of a dropped directory fsync — destination reverted —
	// is exactly StagePreRename, so both are covered).
	StagePostRename = "post-rename"
	// StageTornCreate dies mid-write of an O_EXCL create: the file exists
	// with partial content.
	StageTornCreate = "torn-create"
	// StagePostCreate dies after the created file is durable but before
	// the parent directory fsync and the caller's acknowledgement.
	StagePostCreate = "post-create"
	// StageTornAppend dies mid-append: the journal carries a partial
	// record at its tail.
	StageTornAppend = "torn-append"
	// StagePostAppend dies after the appended records are durable but
	// before the caller's acknowledgement.
	StagePostAppend = "post-append"
)

// Stages returns the crash-point stages of the op kind, in execution order.
func (o Op) Stages() []string {
	switch o {
	case OpAtomic:
		return []string{StageTornTmp, StagePreRename, StagePostRename}
	case OpExclusive:
		return []string{StageTornCreate, StagePostCreate}
	case OpJournal:
		return []string{StageTornAppend, StagePostAppend}
	case OpRename:
		return []string{StagePostRename}
	default:
		return nil
	}
}

// Site is one registered durable-write site. Sites are registered once at
// package init of their owning package (so importing the daemon registers
// the full catalogue) and name the crash points ("<name>@<stage>").
type Site struct {
	name     string
	op       Op
	recovery bool

	writes atomic.Int64
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Op returns the site's write discipline.
func (s *Site) Op() Op { return s.op }

// Recovery reports whether the site is a recovery-path site (fsck repair
// moves and rewrites): excluded from the selfcheck must-hit catalogue,
// because recovery sites only run when there is damage to repair.
func (s *Site) Recovery() bool { return s.recovery }

// Writes returns how many operations completed through the site in this
// process — the coverage counter exported on /metrics.
func (s *Site) Writes() int64 { return s.writes.Load() }

var (
	regMu    sync.Mutex
	registry = map[string]*Site{}
	regOrder []string
)

// Register registers a durable-write site under a unique name and returns
// its handle. Registering the same name twice panics: the catalogue is the
// selfcheck contract and must not alias.
func Register(name string, op Op) *Site {
	return register(name, op, false)
}

// RegisterRecovery registers a recovery-path site: it gets the same
// discipline and instrumentation but is excluded from CrashPoints, since
// the selfcheck scenario cannot guarantee reaching repair code.
func RegisterRecovery(name string, op Op) *Site {
	return register(name, op, true)
}

func register(name string, op Op, recovery bool) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("statefs: duplicate site %q", name))
	}
	s := &Site{name: name, op: op, recovery: recovery}
	registry[name] = s
	regOrder = append(regOrder, name)
	return s
}

// Sites returns every registered site, sorted by name.
func Sites() []*Site {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Site, 0, len(registry))
	for _, name := range regOrder {
		out = append(out, registry[name])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// CrashPoints returns the "<site>@<stage>" catalogue of every non-recovery
// site, sorted — the set `make selfcheck` must kill the daemon at.
func CrashPoints() []string {
	var out []string
	for _, s := range Sites() {
		if s.recovery {
			continue
		}
		for _, stage := range s.op.Stages() {
			out = append(out, s.name+"@"+stage)
		}
	}
	sort.Strings(out)
	return out
}

// ---- crash arming ----

var (
	armedObs atomic.Pointer[obs.Run]

	crashOnce   sync.Once
	crashPoint  string // "<site>@<stage>", "" when unarmed
	crashTarget int64
	crashHits   atomic.Int64
)

// SetObs directs per-site write counters ("statefs/<site>") and the
// aggregate "statefs/writes" counter at the run; nil (or never calling)
// keeps counting process-locally only. The daemon points this at its
// process-level run so coverage reaches its /metrics.
func SetObs(r *obs.Run) { armedObs.Store(r) }

// crashArming parses the environment once.
func crashArming() (string, int64) {
	crashOnce.Do(func() {
		crashPoint = os.Getenv(EnvCrashPoint)
		crashTarget = 1
		if v := os.Getenv(EnvCrashHit); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
				crashTarget = n
			}
		}
	})
	return crashPoint, crashTarget
}

// at reports whether the armed crash point matches this site and stage
// and this traversal is the one that fires.
func (s *Site) at(stage string) bool {
	point, target := crashArming()
	if point == "" || point != s.name+"@"+stage {
		return false
	}
	return crashHits.Add(1) == target
}

// crash simulates dying at the stage: the disk already carries the
// simulated post-crash state, so the process just exits hard.
func (s *Site) crash(stage string) {
	if s.at(stage) {
		fmt.Fprintf(os.Stderr, "statefs: simulated crash at %s@%s\n", s.name, stage)
		os.Exit(CrashExitCode)
	}
}

// done counts a completed operation through the site.
func (s *Site) done() {
	s.writes.Add(1)
	if r := armedObs.Load(); r != nil {
		r.Counter("statefs/" + s.name).Inc()
		r.Counter("statefs/writes").Inc()
	}
}

// ---- operations ----

// WriteBytes atomically and durably replaces path with data: temp file in
// the same directory, write, fsync, rename, parent-directory fsync.
// Crash points: torn-tmp, pre-rename, post-rename.
func WriteBytes(site *Site, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if site.at(StageTornTmp) {
		// Simulate dying mid-write: a prefix of the payload, never synced.
		_, _ = f.Write(data[:len(data)/2])
		_ = f.Close()
		fmt.Fprintf(os.Stderr, "statefs: simulated crash at %s@%s\n", site.name, StageTornTmp)
		os.Exit(CrashExitCode)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	site.crash(StagePreRename)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	site.crash(StagePostRename)
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	site.done()
	return nil
}

// WriteJSON marshals v (indented, newline-terminated) and WriteBytes it —
// the record format every JSON state file in the daemon uses.
func WriteJSON(site *Site, path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteBytes(site, path, append(data, '\n'))
}

// CreateExclusive creates path with O_EXCL — exactly one concurrent
// creator succeeds — writes data, fsyncs the file and its parent
// directory. A losing creator gets an error satisfying os.IsExist.
// Crash points: torn-create, post-create.
func CreateExclusive(site *Site, path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if site.at(StageTornCreate) {
		_, _ = f.Write(data[:len(data)/2])
		_ = f.Close()
		fmt.Fprintf(os.Stderr, "statefs: simulated crash at %s@%s\n", site.name, StageTornCreate)
		os.Exit(CrashExitCode)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	site.crash(StagePostCreate)
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	site.done()
	return nil
}

// CreateExclusiveJSON marshals v (compact, newline-terminated) and
// CreateExclusive's it.
func CreateExclusiveJSON(site *Site, path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return CreateExclusive(site, path, append(data, '\n'))
}

// Append appends data to the journal at path (created if missing) and
// fsyncs before returning, so a record is durable before it is
// acknowledged — the ack-after-flush contract.
// Crash points: torn-append, post-append.
func Append(site *Site, path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if site.at(StageTornAppend) {
		_, _ = f.Write(data[:len(data)/2])
		_ = f.Close()
		fmt.Fprintf(os.Stderr, "statefs: simulated crash at %s@%s\n", site.name, StageTornAppend)
		os.Exit(CrashExitCode)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	site.crash(StagePostAppend)
	if err := f.Close(); err != nil {
		return err
	}
	site.done()
	return nil
}

// Rename moves old to new and fsyncs the destination's parent directory
// (and the source's, when different) — the recovery-path move fsck uses to
// quarantine damaged records. Crash point: post-rename.
func Rename(site *Site, oldPath, newPath string) error {
	if err := os.Rename(oldPath, newPath); err != nil {
		return err
	}
	site.crash(StagePostRename)
	if err := SyncDir(filepath.Dir(newPath)); err != nil {
		return err
	}
	if od, nd := filepath.Dir(oldPath), filepath.Dir(newPath); od != nd {
		if err := SyncDir(od); err != nil {
			return err
		}
	}
	site.done()
	return nil
}

// SyncDir fsyncs a directory so a just-renamed or just-created entry's
// dentry is durable — the step whose absence this project exists to
// detect, exported so read-side packages can share the one audited copy.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
