package serve

import (
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// recordKind is one kind of file in paracrashd's state directory. The
// records table is the one place their names are spelled: writers, readers,
// directory watches and fsck all name and parse files through it.
// docs/OPERATIONS.md §1 lists the same kinds (TestLayoutDocumented).
type recordKind int

const (
	kindJob recordKind = iota
	kindTask
	kindResult
	kindShardJournal
	kindJournal
	kindLease
)

// What a record's ID is: a job's ID, a shardID, or a lease's task (a
// shardID, unless a LeaseDir caller chose its own).
const (
	byJob = iota
	byShard
	byTask
)

// records spells each kind's file name, prefix + ID + suffix, and names the
// kind as fsck's findings do. parseRecord tries the rows in order: the
// shard journal's before the job journal's.
var records = [...]struct {
	prefix, suffix string
	id             int
	what           string
}{
	kindJob:          {"job-", ".json", byJob, "job record"},
	kindTask:         {"task-", ".json", byShard, "shard task"},
	kindResult:       {"result-", ".json", byShard, "shard result"},
	kindShardJournal: {"ckpt-", ".jsonl", byShard, "checkpoint journal"},
	kindJournal:      {"ckpt-", ".jsonl", byJob, "checkpoint journal"},
	kindLease:        {"lease-", ".json", byTask, "lease"},
}

const shardSep = "-shard-"

// shardID is the ID of a job's shard: its records' ID and its lease's Task.
func shardID(job string, index int) string { return job + shardSep + strconv.Itoa(index) }

// name is the file name of kind k's record of id, which it sanitizes, once.
func (k recordKind) name(id string) string {
	return records[k].prefix + sanitizeID(id) + records[k].suffix
}

// path is name under dir.
func (k recordKind) path(dir, id string) string { return filepath.Join(dir, k.name(id)) }

// glob lists dir's records of kind k, in name order.
func (k recordKind) glob(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, records[k].prefix+"*"+records[k].suffix))
	return slices.DeleteFunc(paths, func(p string) bool {
		rec, ok := parseRecord(filepath.Base(p))
		return !ok || rec.kind != k
	}), err
}

// record is a parsed file name: its kind, its ID as spelled (sanitized),
// the owning job ("" for a lease on a task of no shard) and the shard's
// index (-1 when the ID is no shardID).
type record struct {
	kind    recordKind
	id, job string
	shard   int
}

// parseRecord is name's inverse, with ok=false for every name no kind
// produces: temp files, the quarantine directory, foreign files.
func parseRecord(name string) (record, bool) {
	for k, r := range records {
		id, hasPrefix := strings.CutPrefix(name, r.prefix)
		id, hasSuffix := strings.CutSuffix(id, r.suffix)
		if !hasPrefix || !hasSuffix || id == "" || sanitizeID(id) != id {
			continue
		}
		rec := record{kind: recordKind(k), id: id, job: id, shard: -1}
		if r.id == byJob {
			return rec, true
		}
		rec.job = ""
		// Only the index shardID spells: no sign, no leading zero.
		if i := strings.LastIndex(id, shardSep); i > 0 {
			if n, err := strconv.Atoi(id[i+len(shardSep):]); err == nil && n >= 0 && shardID(id[:i], n) == id {
				rec.job, rec.shard = id[:i], n
			}
		}
		if rec.shard >= 0 || r.id == byTask {
			return rec, true
		}
	}
	return record{}, false
}
