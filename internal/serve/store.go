package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"paracrash/internal/statefs"
)

// Store indexes every job the daemon knows about. Every job — queued,
// running or terminal — is persisted to the results directory as one job
// record, schema-versioned by JobVersion and written atomically, so a
// restarted daemon both lists previously completed jobs and notices the
// ones an unclean death interrupted (Interrupted). An empty directory path
// keeps the store memory-only.
type Store struct {
	dir string

	mu    sync.RWMutex
	jobs  map[string]*Job
	order []string // submission order; restart-loaded jobs sort by CreatedAt first
}

// OpenStore opens (creating if needed) a store over dir and loads every
// persisted job record. Records with a different schema version or
// unparsable content — including the half-written file a crash mid-persist
// leaves behind when rename atomicity is lost — are skipped with an error
// list, never a failure: one corrupt record must not take the daemon down.
func OpenStore(dir string) (*Store, []error) {
	s := &Store{dir: dir, jobs: map[string]*Job{}}
	if dir == "" {
		return s, nil
	}
	var warns []error
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return s, []error{fmt.Errorf("serve: results dir: %w", err)}
	}
	paths, err := kindJob.glob(dir)
	if err != nil {
		return s, []error{err}
	}
	var loaded []*Job
	for _, p := range paths {
		j, err := readJob(p)
		if err != nil {
			warns = append(warns, err)
			continue
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool { return loaded[a].CreatedAt.Before(loaded[b].CreatedAt) })
	for _, j := range loaded {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	return s, warns
}

// skewError is a job record of another schema version, which fsck tells
// apart from a torn one.
type skewError struct{ version int }

func (e skewError) Error() string {
	return fmt.Sprintf("schema version %d, want %d", e.version, JobVersion)
}

// readJob is the one reader of job records, OpenStore's and fsck's. A
// record that does not parse or names no job is an error, and one of
// another schema version a skewError.
func readJob(path string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: read %s: %w", path, err)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("serve: parse %s: %w", path, err)
	}
	if j.ID == "" {
		return nil, fmt.Errorf("serve: %s has no job ID", path)
	}
	if j.Version != JobVersion {
		return nil, fmt.Errorf("serve: %s has %w", path, skewError{j.Version})
	}
	return &j, nil
}

// Interrupted returns the jobs a previous daemon left non-terminal (it died
// while they were queued or running), oldest first. The scheduler resubmits
// them on startup so their work resumes from any checkpoint journal.
func (s *Store) Interrupted() []Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Job
	for _, id := range s.order {
		if j := s.jobs[id]; !j.State.Terminal() {
			out = append(out, *j)
		}
	}
	return out
}

// Dir returns the results directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Add registers a new job and persists its queued record (best-effort: the
// in-memory registration always applies; a persist failure only costs the
// job's restart durability).
func (s *Store) Add(j *Job) {
	s.mu.Lock()
	if _, ok := s.jobs[j.ID]; !ok {
		s.order = append(s.order, j.ID)
	}
	s.jobs[j.ID] = j
	cp := *j
	s.mu.Unlock()
	if s.dir != "" {
		_ = s.persist(&cp)
	}
}

// Get returns a snapshot copy of the job record. The copy shares the
// immutable result pointer (Report is written once, before the job
// turns terminal) but detaches the mutable scalar fields, so handlers can
// marshal it without holding the store lock.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshot copies of every job in submission order.
func (s *Store) List() []Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Update applies fn to the job under the store lock and persists the new
// record (every state, so restarts see queued/running jobs as interrupted).
// The returned error is the persistence error (the in-memory update always
// applies).
func (s *Store) Update(id string, fn func(*Job)) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: update of unknown job %s", id)
	}
	fn(j)
	cp := *j
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	return s.persist(&cp)
}

// persist writes one job record through the statefs atomic discipline
// (temp + fsync + rename + directory fsync) — the discipline whose absence
// this project exists to detect, implemented exactly once in
// internal/statefs and crash-tested by `make selfcheck`.
func (s *Store) persist(j *Job) error {
	if err := statefs.WriteJSON(siteJobRecord, kindJob.path(s.dir, j.ID), j); err != nil {
		return fmt.Errorf("serve: persist job %s: %w", j.ID, err)
	}
	return nil
}

// sanitizeID keeps persisted file names flat even if an ID were ever
// attacker-shaped; IDs the scheduler mints are already [a-z0-9-].
func sanitizeID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, id)
}
