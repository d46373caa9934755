// Checkpoint/resume: the explorer journals every completed crash-state
// verdict to a versioned JSONL file so an interrupted run (crash, kill,
// power loss — the very failures this tool studies) can be resumed without
// redoing finished work.
//
// The journal's first line is a header carrying the format version and the
// run's fingerprint (checkpointConfig: its trace and every verdict-relevant
// option); every later line is one Verdict, with its class key. On resume a
// mismatched header discards the journal with a warning instead of
// poisoning the run with verdicts computed under other rules or over
// another trace. ReadJournal is the one reader, shared with the daemon's
// fsck.
//
// Durability goes through internal/statefs, the audited persistence layer
// crash-tested by `make selfcheck`: the first flush (or any flush after a
// resume discarded incompatible or damaged content) rewrites the whole
// journal atomically (temp + fsync + rename + directory fsync), and every
// later flush appends only the new records with an fsync before they are
// acknowledged — O(new) instead of O(all), and a record is never treated
// as checkpointed before it is durable. A crash mid-append leaves a torn
// tail, which resume drops (keeping everything before it) and the next
// flush rewrites away. Quarantined (skipped) verdicts are never
// journaled: a resumed run re-attempts them, since the backend that
// poisoned them may have been fixed.
package paracrash

import (
	"bytes"
	"cmp"
	"encoding/hex"
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
// the Journal header, Verdict or the checkpointConfig format.
const checkpointVersion = 5

// defaultCheckpointEvery is the record-batch size between automatic
// flushes; the journal is also flushed on every run exit path.
const defaultCheckpointEvery = 32

// Journal is a checkpoint journal as ReadJournal reads it. Its JSON form is
// the header line: the format version and the writing run's fingerprint.
type Journal struct {
	Version int    `json:"version"`
	Config  string `json:"config"`
	// Verdicts are the records kept, in file order.
	Verdicts []Verdict `json:"-"`
	// Torn says why the file does not end at a clean record boundary ("" when
	// it does); Duplicates counts records dropped for repeating a key.
	Torn       string `json:"-"`
	Duplicates int    `json:"-"`
}

// ReadJournal is the one reader of checkpoint journals, for resume and the
// daemon's fsck alike. The header line must parse, or the journal is
// unreadable (the error). Every record must parse and carry a key that
// decodes: the first line that does not is a torn tail, dropped with every
// line after it. The first record of a key wins. A last line without its
// newline is a torn tail too; a record on it that parses is kept, since
// only its terminator is missing.
func ReadJournal(data []byte) (*Journal, error) {
	j := &Journal{}
	lines := bytes.Split(data, []byte("\n"))
	if last := lines[len(lines)-1]; len(last) == 0 {
		lines = lines[:len(lines)-1]
	} else {
		j.Torn = "last record lacks its newline (crash during append)"
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("journal is empty")
	}
	if err := json.Unmarshal(lines[0], j); err != nil {
		return nil, fmt.Errorf("journal header: %w", err)
	}
	seen := map[string]bool{}
	for i, line := range lines[1:] {
		var v Verdict
		key, err := "", json.Unmarshal(line, &v)
		if err == nil {
			key, err = v.stateKey()
		}
		if err != nil {
			j.Torn = fmt.Sprintf("record at line %d is damaged; dropping it and the %d line(s) after it", i+2, len(lines)-i-2)
			break
		}
		if seen[key] {
			j.Duplicates++
			continue
		}
		seen[key] = true
		j.Verdicts = append(j.Verdicts, v)
	}
	return j, nil
}

// Bytes renders the journal clean, as a full rewrite writes it: the header
// line, then one line per kept record.
func (j *Journal) Bytes() []byte { return journalLines(j, j.Verdicts) }

// journalLines renders the header (when non-nil) and one line per verdict.
// Both hold only strings, ints and bools, which always encode.
func journalLines(hdr *Journal, vs []Verdict) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if hdr != nil {
		enc.Encode(hdr)
	}
	for _, v := range vs {
		enc.Encode(v)
	}
	return buf.Bytes()
}

// Checkpoint is a crash-state verdict journal bound to one file. Create it
// with OpenCheckpoint, hand it to Options.Checkpoint, and the run loads any
// compatible previous journal, continues from the frontier and keeps
// journaling. Safe for concurrent use: a caller may Flush while the run
// records.
type Checkpoint struct {
	path string

	// Every is the number of new records between automatic flushes
	// (defaultCheckpointEvery when 0). The run always flushes on exit, so
	// Every only bounds how much work an unclean death can lose.
	Every int

	mu sync.Mutex
	// j is the journal as this run writes it, resumed and fresh records in
	// journal order; keys holds their binary state keys.
	j        Journal
	keys     map[string]bool
	resumed  int
	warnings []string
	dirty    int
	// persisted counts the records already durable in the file; a flush
	// appends j.Verdicts[persisted:] only. 0 means the next flush must
	// rewrite the whole journal (fresh file, or resume found it unclean).
	persisted int
}

// OpenCheckpoint binds a checkpoint journal to path. The file is not read
// until a run resumes from it, and not created until the first flush.
func OpenCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, keys: map[string]bool{}}
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

// Warnings returns the non-fatal anomalies of the last resume (torn tail,
// configuration mismatch, duplicate keys).
func (c *Checkpoint) Warnings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.warnings...)
}

// resume loads the journal for a run that fingerprints to config and
// returns its records by binary state key. A missing file is a fresh start;
// an incompatible or unreadable one is discarded with a warning, a damaged
// one keeps what ReadJournal keeps. Only I/O errors other than
// non-existence are fatal.
func (c *Checkpoint) resume(config string) (map[string]Verdict, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.j = Journal{Version: checkpointVersion, Config: config}
	c.keys = map[string]bool{}
	c.resumed, c.warnings, c.dirty, c.persisted = 0, nil, 0, 0

	data, err := os.ReadFile(c.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	j, err := ReadJournal(data)
	stale := ""
	switch {
	case err != nil:
		stale = fmt.Sprintf("unreadable checkpoint (%v)", err)
	case j.Version != checkpointVersion:
		stale = fmt.Sprintf("checkpoint version %d != %d", j.Version, checkpointVersion)
	case j.Config != config:
		stale = "checkpoint was written by a run with a different configuration"
	}
	if stale != "" {
		c.warnings = append(c.warnings, stale+"; starting fresh")
		return nil, nil
	}
	if j.Torn != "" {
		c.warnings = append(c.warnings, "checkpoint "+j.Torn)
	}
	if j.Duplicates > 0 {
		c.warnings = append(c.warnings, fmt.Sprintf("%d duplicate checkpoint record(s) ignored", j.Duplicates))
	}
	out := make(map[string]Verdict, len(j.Verdicts))
	for _, v := range j.Verdicts {
		key, _ := v.stateKey() // ReadJournal kept only keys that decode
		c.keys[key] = true
		out[key] = v
	}
	c.j.Verdicts = j.Verdicts
	c.resumed = len(out)
	// A clean load means the file is exactly header + records and appends
	// may continue it; any warning leaves persisted at 0 so the next flush
	// rewrites it clean.
	if len(c.warnings) == 0 {
		c.persisted = len(c.j.Verdicts)
	}
	return out, nil
}

// record journals one freshly computed verdict of state key, with its class
// key, flushing every Every new records. Skipped (quarantined) verdicts are
// not journaled so a resumed run re-attempts them.
func (c *Checkpoint) record(key string, v Verdict) error {
	if v.Skipped {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keys[key] {
		return nil
	}
	c.keys[key] = true
	v.Key = hex.EncodeToString([]byte(key))
	c.j.Verdicts = append(c.j.Verdicts, v)
	c.dirty++
	if c.dirty >= cmp.Or(c.Every, defaultCheckpointEvery) {
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
	var err error
	if c.persisted == 0 {
		err = statefs.WriteBytes(siteCkptRewrite, c.path, c.j.Bytes())
	} else if len(c.j.Verdicts) > c.persisted {
		err = statefs.Append(siteCkptAppend, c.path, journalLines(nil, c.j.Verdicts[c.persisted:]))
	}
	if err != nil {
		return err
	}
	c.persisted = len(c.j.Verdicts)
	c.dirty = 0
	return nil
}

// checkpointConfig fingerprints a run: its identity (session.identity:
// backend, server count, workload and traced ops) and the JSON encoding of
// its Options, so a journal or a shard report written by one run is trusted
// only by a run of the same trace under the same rules. A field that cannot
// change a verdict is tagged json:"-" and left out;
// TestCheckpointConfigCoversOptions holds every field to its tag.
func checkpointConfig(identity string, opts Options) string {
	// Every encoded field is a number or a name, so encoding cannot fail.
	rules, _ := json.Marshal(opts)
	return fmt.Sprintf("v%d|%s|%s", checkpointVersion, identity, rules)
}
