package paracrash

import (
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/pfs/extfs"
	"paracrash/internal/trace"
)

// TestClientIDParsing pins the malformed-proc-name regression: an ignored
// Sscanf error used to collapse every unparsable proc onto client 0.
func TestClientIDParsing(t *testing.T) {
	good := map[string]int{
		"client/0":  0,
		"client/3":  3,
		"client/12": 12,
	}
	for proc, want := range good {
		id, err := pfs.ClientID(proc)
		if err != nil {
			t.Errorf("ClientID(%q): unexpected error %v", proc, err)
			continue
		}
		if id != want {
			t.Errorf("ClientID(%q) = %d, want %d", proc, id, want)
		}
	}
	bad := []string{"client", "client/", "client/x", "client/-1", "client/1x", "client/0.5", ""}
	for _, proc := range bad {
		if id, err := pfs.ClientID(proc); err == nil {
			t.Errorf("ClientID(%q) = %d, want error", proc, id)
		}
	}
}

// TestSessionClientRejectsMalformedProc exercises the plumbed error return:
// a corrupt proc name must fail loudly instead of replaying client 0.
func TestSessionClientRejectsMalformedProc(t *testing.T) {
	conf := pfs.DefaultConfig()
	conf.MetaServers = 0
	conf.StorageServers = 1
	s := &session{
		fs:      extfs.New(conf, trace.NewRecorder()),
		clients: map[string]pfs.Client{},
	}
	c, err := s.client("client/1")
	if err != nil || c == nil {
		t.Fatalf("client(client/1): %v", err)
	}
	if c2, err := s.client("client/1"); err != nil || c2 != c {
		t.Fatal("client endpoints must be cached per proc")
	}
	if _, err := s.client("corrupt-proc"); err == nil {
		t.Fatal("client(corrupt-proc) must error")
	}
}
