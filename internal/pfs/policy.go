package pfs

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"paracrash/internal/vfs"
)

// ProcNames returns n server proc names "<kind>/0" … "<kind>/<n-1>".
func ProcNames(kind string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = kind + "/" + strconv.Itoa(i)
	}
	return out
}

// ClientProc returns the proc name client process id records under
// ("client/3"); ClientID parses it back.
func ClientProc(id int) string { return fmt.Sprintf("client/%d", id) }

// ClientID parses the numeric id out of a client proc name ("client/3").
// Proc names come from the trace recorder; one that does not parse means
// the trace is corrupt, and collapsing it onto client 0 would silently
// replay another client's state.
func ClientID(proc string) (int, error) {
	i := strings.IndexByte(proc, '/')
	if i < 0 {
		return 0, fmt.Errorf("pfs: client proc %q: missing \"/<rank>\" suffix", proc)
	}
	id, err := strconv.Atoi(proc[i+1:])
	if err != nil {
		return 0, fmt.Errorf("pfs: client proc %q: unparsable rank: %v", proc, err)
	}
	if id < 0 {
		return 0, fmt.Errorf("pfs: client proc %q: negative rank", proc)
	}
	return id, nil
}

// FileBase chooses the first stripe target of a new file at path among n
// servers: its FilePlacement pin modulo n; otherwise, when hashed, the
// FNV-1a hash of the clean path modulo n (BeeGFS and OrangeFS spread
// files), else 0 (a striped volume or a shared disk anchors every file on
// the first server).
func (c Config) FileBase(path string, n int, hashed bool) int {
	path = vfs.Clean(path)
	if b, ok := c.FilePlacement[path]; ok {
		return b % n
	}
	if !hashed {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(path))
	return int(h.Sum32()) % n
}

// DirOwner chooses the owning metadata server of a new directory at path:
// its DirPlacement pin, else round-robin on the backend's directory
// sequence number seq, either modulo MetaServers.
func (c Config) DirOwner(path string, seq int) int {
	if o, ok := c.DirPlacement[vfs.Clean(path)]; ok {
		return o % c.MetaServers
	}
	return seq % c.MetaServers
}

// Must panics on a setup error: formatting a fresh simulated server cannot
// fail unless the backend itself is wrong.
func Must(err error) {
	if err != nil {
		panic(fmt.Sprintf("pfs: setup: %v", err))
	}
}

// FirstErr returns a if it is set, else b: a handler issuing a sequence of
// server ops keeps the first failure.
func FirstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
