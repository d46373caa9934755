package hdf5_test

import (
	"bytes"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/hdf5"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// tapFS records every byte range a client writes to the file system; the
// library's extent writes arrive whole, one per dirty extent at a flush.
type tapFS struct {
	pfs.FileSystem
	writes *[][]byte
}

func (t tapFS) Client(id int) pfs.Client { return tapClient{t.FileSystem.Client(id), t.writes} }

type tapClient struct {
	pfs.Client
	writes *[][]byte
}

func (c tapClient) WriteAt(path string, off int64, data []byte) error {
	*c.writes = append(*c.writes, bytes.Clone(data))
	return c.Client.WriteAt(path, off, data)
}

// runProgram runs prog's preamble (untraced) and body on a fresh BeeGFS
// and returns every write its clients made and the file system.
func runProgram(tb testing.TB, prog exps.Program) ([][]byte, pfs.FileSystem) {
	tb.Helper()
	rec := trace.NewRecorder()
	fs, err := exps.NewFS("beegfs", exps.ConfigFor("beegfs"), rec)
	if err != nil {
		tb.Fatal(err)
	}
	var writes [][]byte
	tap := tapFS{fs, &writes}
	w, _ := prog.Make(workloads.DefaultH5Params())
	rec.SetEnabled(false)
	if err := w.Preamble(tap); err != nil {
		tb.Fatalf("%s preamble: %v", prog.Name, err)
	}
	rec.SetEnabled(true)
	if err := w.Run(tap); err != nil {
		tb.Fatalf("%s: %v", prog.Name, err)
	}
	return writes, fs
}

// TestCanonicalCoversEncoder: every metadata extent the 11 paper programs
// write in their preamble and body takes the decoder's fast path, and the
// fast path decodes it as json.Unmarshal does — the fallback is for bytes
// the encoder never writes.
func TestCanonicalCoversEncoder(t *testing.T) {
	extents := 0
	for _, prog := range exps.Programs() {
		writes, _ := runProgram(t, prog)
		n := 0
		for _, w := range writes {
			sig, fast, same := hdf5.CanonicalExtent(w)
			if sig == "" {
				continue
			}
			n++
			if !fast || !same {
				t.Errorf("%s: %q extent (fast path %t, agrees with json.Unmarshal %t): %q", prog.Name, sig, fast, same, w)
			}
		}
		if n == 0 && !prog.POSIX {
			t.Errorf("%s wrote no metadata extent", prog.Name)
		}
		extents += n
	}
	t.Logf("%d metadata extents, all on the fast path", extents)
}

// parsed keeps BenchmarkParse's result live.
var parsed *hdf5.LogicalState

// BenchmarkParse is h5check's Parse over the image H5-create leaves on
// BeeGFS: two groups of datasets plus the body's new dataset.
func BenchmarkParse(b *testing.B) {
	prog, err := exps.ProgramByName("H5-create")
	if err != nil {
		b.Fatal(err)
	}
	_, fs := runProgram(b, prog)
	tree, err := fs.Mount()
	if err != nil {
		b.Fatal(err)
	}
	img := tree.Entries[workloads.FilePath].Data
	if st := hdf5.Parse(img, false); !st.Readable() || len(st.Objects) < 5 {
		b.Fatalf("unexpected image state:\n%s", st.Serialize())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		parsed = hdf5.Parse(img, false)
	}
}
