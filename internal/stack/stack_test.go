package stack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"paracrash/internal/hdf5"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/extfs"
	"paracrash/internal/trace"
)

// buildStack formats the paper's initial file on an ext4 baseline and
// returns the fs and a seeded library adapter.
func buildStack(t *testing.T, d Dialect) (pfs.FileSystem, *Library) {
	t.Helper()
	conf := pfs.DefaultConfig()
	conf.MetaServers = 0
	conf.StorageServers = 1
	fs := extfs.New(conf, trace.NewRecorder())
	fs.Recorder().SetEnabled(false)

	s, err := FormatFile(fs, 0, "/test.h5", d)
	if err != nil {
		t.Fatal(err)
	}
	must(t, s.CreateGroup("/g1"))
	must(t, s.CreateDataset("/g1/d1", 4, 4))
	must(t, s.WriteDataset("/g1/d1", []byte("0123456789abcdef")))
	must(t, s.Close())

	lib := NewLibrary(d, "/test.h5")
	tree, err := fs.Mount()
	must(t, err)
	must(t, lib.Seed(tree))
	fs.Recorder().SetEnabled(true)
	return fs, lib
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplayMatchesLiveExecution: replaying the recorded library ops on the
// seeded image produces the same logical state as the live run — the
// golden-master invariant everything rests on.
func TestReplayMatchesLiveExecution(t *testing.T) {
	fs, lib := buildStack(t, DialectHDF5)
	s, err := OpenFile(fs, 0, "/test.h5", DialectHDF5)
	must(t, err)
	must(t, s.CreateDataset("/g1/dnew", 4, 4))
	must(t, s.WriteDataset("/g1/dnew", []byte("fresh-data-16byt")))
	must(t, s.Move("/g1/d1", "/g1/dmoved"))
	must(t, s.Close())

	// Live state, parsed from the PFS.
	tree, err := fs.Mount()
	must(t, err)
	live, err := lib.StateFromTree(tree)
	must(t, err)

	// Replayed state from the trace.
	var libOps []*trace.Op
	for _, o := range fs.Recorder().Ops() {
		if o.Layer == trace.LayerIOLib {
			libOps = append(libOps, o)
		}
	}
	if len(libOps) < 5 {
		t.Fatalf("expected library ops in the trace, got %d", len(libOps))
	}
	replayed, err := lib.Replay(libOps)
	must(t, err)
	if live != replayed {
		t.Fatalf("replay diverges from live:\nlive:\n%s\nreplay:\n%s", live, replayed)
	}
	if !strings.Contains(live, "/g1/dnew") || !strings.Contains(live, "/g1/dmoved") {
		t.Fatalf("state incomplete:\n%s", live)
	}
}

// TestReplaySubsetSkipsDependents: a preserved set missing the create
// silently loses the dependent write.
func TestReplaySubsetSkipsDependents(t *testing.T) {
	fs, lib := buildStack(t, DialectHDF5)
	s, err := OpenFile(fs, 0, "/test.h5", DialectHDF5)
	must(t, err)
	must(t, s.CreateDataset("/g1/dnew", 4, 4))
	must(t, s.WriteDataset("/g1/dnew", []byte("fresh-data-16byt")))
	must(t, s.Close())

	var open, write, closeOp *trace.Op
	for _, o := range fs.Recorder().Ops() {
		if o.Layer != trace.LayerIOLib {
			continue
		}
		switch {
		case strings.Contains(o.Name, "Fopen"):
			open = o
		case strings.Contains(o.Name, "Dwrite"):
			write = o
		case strings.Contains(o.Name, "Fclose"):
			closeOp = o
		}
	}
	state, err := lib.Replay([]*trace.Op{open, write, closeOp})
	must(t, err)
	if strings.Contains(state, "/g1/dnew") {
		t.Fatalf("write without create should be lost:\n%s", state)
	}
	if !strings.Contains(state, "/g1/d1") {
		t.Fatalf("seeded content lost:\n%s", state)
	}
}

// TestTagsReachLowermostOps: the library's object map labels flow through
// MPI-IO and the PFS down to the replayable writes (used by semantic
// pruning).
func TestTagsReachLowermostOps(t *testing.T) {
	fs, _ := buildStack(t, DialectHDF5)
	s, err := OpenFile(fs, 0, "/test.h5", DialectHDF5)
	must(t, err)
	must(t, s.WriteDataset("/g1/d1", []byte("xxxxxxxxxxxxxxxx")))
	must(t, s.Close())
	sawData, sawMeta := false, false
	for _, o := range fs.Recorder().Ops() {
		if o.Payload == nil {
			continue
		}
		if strings.HasPrefix(o.Tag, "h5:data:/g1/d1") {
			sawData = true
		}
		if strings.HasPrefix(o.Tag, "h5:superblock") {
			sawMeta = true
		}
	}
	if !sawData || !sawMeta {
		t.Fatalf("tags missing at the lowermost layer (data=%v meta=%v)", sawData, sawMeta)
	}
}

// TestLayerNesting: lowermost ops chain through MPI and library ancestors.
func TestLayerNesting(t *testing.T) {
	fs, _ := buildStack(t, DialectHDF5)
	s, err := OpenFile(fs, 0, "/test.h5", DialectHDF5)
	must(t, err)
	must(t, s.CreateDataset("/g1/dn", 4, 4))
	must(t, s.Close())
	ops := fs.Recorder().Ops()
	byID := map[int]*trace.Op{}
	for _, o := range ops {
		byID[o.ID] = o
	}
	checked := 0
	for _, o := range ops {
		if o.Payload == nil || o.Layer != trace.LayerLocalFS {
			continue
		}
		layers := map[trace.Layer]bool{}
		for cur := o; cur != nil; {
			layers[cur.Layer] = true
			if cur.Parent <= 0 {
				break
			}
			cur = byID[cur.Parent]
		}
		if layers[trace.LayerMPI] && layers[trace.LayerIOLib] {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no lowermost op chains through MPI and library layers")
	}
}

// TestNetCDFStrictness: the same torn image is partially readable as HDF5
// but unopenable as NetCDF (bug #15's -101).
func TestNetCDFStrictness(t *testing.T) {
	be := &hdf5.MemBackend{}
	f, err := hdf5.Format(be)
	must(t, err)
	must(t, f.CreateDataset("/v1", 4, 4))
	must(t, f.Close())
	// Corrupt the dataset's object header region.
	img := append([]byte(nil), be.Buf...)
	m, err := hdf5.Inspect(img)
	must(t, err)
	for _, e := range m {
		if e.Kind == "ohdr" && e.Path == "/v1" {
			for i := 0; i < e.Size; i++ {
				img[e.Addr+int64(i)] = 0
			}
		}
	}
	lazy := hdf5.Parse(img, false)
	if lazy.FileError != "" {
		t.Fatalf("HDF5 lazy open should tolerate one corrupt object: %s", lazy.FileError)
	}
	strict := hdf5.Parse(img, true)
	if !strings.Contains(strict.FileError, "-101") {
		t.Fatalf("NetCDF strict open should fail with -101, got %q", strict.FileError)
	}
}

// TestRecoverTreeClearsStatus: h5clear fixes the open-for-write flag left
// by a crash before close.
func TestRecoverTreeClearsStatus(t *testing.T) {
	fs, lib := buildStack(t, DialectHDF5)
	// Open for write and flush only the status flag, then "crash" (skip
	// close): the on-PFS superblock carries status=1.
	_, err := OpenFile(fs, 0, "/test.h5", DialectHDF5)
	must(t, err)
	tree, err := fs.Mount()
	must(t, err)
	img := tree.Entries["/test.h5"].Data
	st, err := hdf5.Status(img)
	must(t, err)
	if st == 0 {
		t.Fatal("status flag should be set after open")
	}
	fixed, changed := lib.RecoverTree(tree)
	if !changed {
		t.Fatal("RecoverTree should have cleared the flag")
	}
	img2 := fixed.Entries["/test.h5"].Data
	if st, _ := hdf5.Status(img2); st != 0 {
		t.Fatal("flag not cleared")
	}
}

// TestDigestIsOneShotHash: sum streams into the hash the bytes the one-shot
// construction built — the length-prefixed backend image, then the open
// file's state — so every replay digest is what it was before streaming.
func TestDigestIsOneShotHash(t *testing.T) {
	fs, lib := buildStack(t, DialectHDF5)
	s, err := OpenFile(fs, 0, "/test.h5", DialectHDF5)
	must(t, err)
	must(t, s.CreateDataset("/g1/dnew", 4, 4))
	must(t, s.WriteDataset("/g1/dnew", []byte("fresh-data-16byt")))
	must(t, s.Close())
	oneShot := func(r *replay) string {
		b := binary.LittleEndian.AppendUint64(nil, uint64(len(r.be.Buf)))
		b = append(b, r.be.Buf...)
		if r.f != nil {
			var state bytes.Buffer
			r.f.WriteState(&state)
			b = append(b, state.Bytes()...)
		}
		sum := sha256.Sum256(b)
		return string(sum[:])
	}
	st := lib.Start()
	checked := 0
	for _, op := range fs.Recorder().Ops() {
		if op.Layer != trace.LayerIOLib {
			continue
		}
		if r := st.(*replay); lib.Digest(r) != oneShot(r) {
			t.Fatalf("after %d ops (file open %t): streamed digest differs from the one-shot hash", checked, r.f != nil)
		}
		st = lib.Apply(st, op)
		checked++
	}
	if r := st.(*replay); checked < 4 || r.f == nil || lib.Digest(r) != oneShot(r) {
		t.Fatalf("%d library ops, file open %t: want the final digest checked on an open file", checked, r.f != nil)
	}
}
