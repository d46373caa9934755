// Checkpoint/resume: the explorer journals every completed crash-state
// verdict to a versioned JSONL file so an interrupted run (crash, kill,
// power loss — the very failures this tool studies) can be resumed without
// redoing finished work.
//
// The journal's first line is a header carrying the format version and a
// fingerprint of every option that influences verdicts (workload, file
// system, mode, models, emulator bounds — but not Workers, Retry, Faults
// or Obs, which are verdict-transparent). On resume a mismatched header
// discards the journal with a warning instead of poisoning the run with
// verdicts computed under different rules. A
// truncated tail record — the expected artifact of dying mid-write — is
// likewise dropped with a warning; everything before it is kept.
//
// Durability goes through internal/statefs, the audited persistence layer
// crash-tested by `make selfcheck`: the first flush (or any flush after a
// resume discarded incompatible or damaged content) rewrites the whole
// journal atomically (temp + fsync + rename + directory fsync), and every
// later flush appends only the new records with an fsync before they are
// acknowledged — O(new) instead of O(all), and a record is never treated
// as checkpointed before it is durable. A crash mid-append leaves a torn
// tail record, which resume drops (with everything before it kept) and the
// next flush rewrites away. Quarantined (skipped) verdicts are never
// journaled: a resumed run re-attempts them, since the fault that poisoned
// them may be gone.
package paracrash

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"paracrash/internal/statefs"
)

// The journal's statefs sites: the atomic full rewrite (journal creation
// and post-damage cleanup) and the incremental fsynced append.
var (
	siteCkptRewrite = statefs.Register("core/ckpt-rewrite", statefs.OpAtomic)
	siteCkptAppend  = statefs.Register("core/ckpt-append", statefs.OpJournal)
)

// checkpointVersion is the journal format version; bump on any change to
// ckptHeader, ckptRecord or the checkpointConfig field list.
const checkpointVersion = 3

// defaultCheckpointEvery is the record-batch size between automatic
// flushes; the journal is also flushed on every run exit path.
const defaultCheckpointEvery = 32

// ckptHeader is the journal's first line.
type ckptHeader struct {
	Version int    `json:"version"`
	Config  string `json:"config"`
}

// ckptRecord is one journaled crash-state verdict.
type ckptRecord struct {
	// Key is the crash state's front|keep identity (stateKey).
	Key         string `json:"key"`
	Consistent  bool   `json:"consistent,omitempty"`
	Layer       string `json:"layer,omitempty"`
	Consequence string `json:"consequence,omitempty"`
	State       string `json:"state,omitempty"`
}

// toResult converts a journaled record back into the engine's verdict form.
func (r ckptRecord) toResult() checkResult {
	return checkResult{
		consistent:  r.Consistent,
		layer:       r.Layer,
		consequence: r.Consequence,
		state:       r.State,
	}
}

// Checkpoint is a crash-state verdict journal bound to one file. Create it
// with OpenCheckpoint, hand it to Options.Checkpoint, and the run loads any
// compatible previous journal, continues from the frontier and keeps
// journaling. Safe for concurrent use (the engine records from the merge
// goroutine while callers may Flush).
type Checkpoint struct {
	path string

	// Every is the number of new records between automatic flushes
	// (defaultCheckpointEvery when 0). The run always flushes on exit, so
	// Every only bounds how much work an unclean death can lose.
	Every int

	mu       sync.Mutex
	header   ckptHeader
	records  map[string]ckptRecord
	order    []string // insertion order, for stable journal files
	resumed  int
	warnings []string
	dirty    int
	// persisted counts the records already durable in the file; a flush
	// appends order[persisted:] only. 0 means the next flush must rewrite
	// the whole journal (fresh file, or resume discarded its content).
	persisted int
}

// OpenCheckpoint binds a checkpoint journal to path. The file is not read
// until a run resumes from it, and not created until the first flush.
func OpenCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, records: map[string]ckptRecord{}}
}

// Path returns the journal file path.
func (c *Checkpoint) Path() string { return c.path }

// Resumed returns the number of verdicts loaded from the journal by the
// last resume.
func (c *Checkpoint) Resumed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// Warnings returns the non-fatal anomalies of the last resume (truncated
// tail record, configuration mismatch, duplicate keys).
func (c *Checkpoint) Warnings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.warnings...)
}

// resume loads the journal for a run whose verdict-relevant configuration
// fingerprints to config. A missing file is a fresh start; an incompatible
// or damaged one is discarded with warnings. Only I/O errors other than
// non-existence are fatal.
func (c *Checkpoint) resume(config string) (map[string]checkResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.header = ckptHeader{Version: checkpointVersion, Config: config}
	c.records = map[string]ckptRecord{}
	c.order = nil
	c.resumed = 0
	c.warnings = nil
	c.dirty = 0
	c.persisted = 0

	f, err := os.Open(c.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading checkpoint %s: %w", c.path, err)
		}
		c.warnings = append(c.warnings, "checkpoint file is empty; starting fresh")
		return nil, nil
	}
	var hdr ckptHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		c.warnings = append(c.warnings, fmt.Sprintf("unreadable checkpoint header (%v); starting fresh", err))
		return nil, nil
	}
	if hdr.Version != checkpointVersion {
		c.warnings = append(c.warnings, fmt.Sprintf("checkpoint version %d != %d; starting fresh", hdr.Version, checkpointVersion))
		return nil, nil
	}
	if hdr.Config != config {
		c.warnings = append(c.warnings, "checkpoint was written by a run with a different configuration; starting fresh")
		return nil, nil
	}

	out := map[string]checkResult{}
	line := 1
	for sc.Scan() {
		line++
		var rec ckptRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
			// A torn tail write is the normal way an interrupted run dies;
			// anything after it is untrustworthy.
			c.warnings = append(c.warnings, fmt.Sprintf("checkpoint record at line %d is damaged; dropping it and the rest of the journal", line))
			break
		}
		if _, dup := c.records[rec.Key]; dup {
			c.warnings = append(c.warnings, fmt.Sprintf("duplicate checkpoint record at line %d ignored", line))
			continue
		}
		c.records[rec.Key] = rec
		c.order = append(c.order, rec.Key)
		out[rec.Key] = rec.toResult()
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading checkpoint %s: %w", c.path, err)
	}
	c.resumed = len(out)
	// A clean load means the file is exactly header + records and appends
	// may continue it; any warning (torn tail, duplicates, incompatible
	// header) leaves persisted at 0 so the next flush rewrites it clean.
	if len(c.warnings) == 0 {
		c.persisted = len(c.order)
	}
	return out, nil
}

// record journals one freshly computed verdict, flushing every Every new
// records. Skipped (quarantined) verdicts are not journaled so a resumed
// run re-attempts them.
func (c *Checkpoint) record(key string, r checkResult) error {
	if r.skipped {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.records[key]; ok {
		return nil
	}
	rec := ckptRecord{
		Key:         key,
		Consistent:  r.consistent,
		Layer:       r.layer,
		Consequence: r.consequence,
		State:       r.state,
	}
	c.records[key] = rec
	c.order = append(c.order, key)
	c.dirty++
	every := c.Every
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	if c.dirty >= every {
		return c.flushLocked()
	}
	return nil
}

// Flush writes the journal to disk if any records were added since the last
// flush. The run calls it on every exit path; callers may call it at any
// time.
func (c *Checkpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty == 0 {
		return nil
	}
	return c.flushLocked()
}

// flushLocked makes the journal durable: a full atomic rewrite (header +
// every record) when the file does not yet reflect a clean prefix of the
// run, an fsynced append of just the new records otherwise. Either way no
// record counts as flushed until it is on disk.
func (c *Checkpoint) flushLocked() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if c.persisted == 0 {
		if err := enc.Encode(c.header); err != nil {
			return err
		}
		for _, key := range c.order {
			if err := enc.Encode(c.records[key]); err != nil {
				return err
			}
		}
		if err := statefs.WriteBytes(siteCkptRewrite, c.path, buf.Bytes()); err != nil {
			return err
		}
	} else if len(c.order) > c.persisted {
		for _, key := range c.order[c.persisted:] {
			if err := enc.Encode(c.records[key]); err != nil {
				return err
			}
		}
		if err := statefs.Append(siteCkptAppend, c.path, buf.Bytes()); err != nil {
			return err
		}
	}
	c.persisted = len(c.order)
	c.dirty = 0
	return nil
}

// checkpointConfig fingerprints every option that influences crash-state
// verdicts, so a journal written under one configuration resumes only into
// the same one. TestCheckpointConfigCoversOptions holds every Options and
// EmulatorConfig field to this, and lists with its reason each field left
// out because it cannot change a verdict. mlo is the constant maxLayerOps,
// kept so that journals written while it was an option still resume.
func checkpointConfig(workload, fsName string, opts Options) string {
	return fmt.Sprintf("v%d|%s|%s|%s|pfs=%d|lib=%d|k=%d|fm=%d|mf=%d|ms=%d|mlo=%d|mls=%d|nosem=%t",
		checkpointVersion, workload, fsName, opts.Mode,
		opts.PFSModel, opts.LibModel,
		opts.Emulator.K, opts.Emulator.FrontMode, opts.Emulator.MaxFronts, opts.Emulator.MaxStates,
		maxLayerOps, opts.MaxLegalStates,
		opts.DisableSemanticPruning)
}
