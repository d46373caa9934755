package exps

import (
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

var treeSink string

// BenchmarkRecoverMount is the recovery layer's local number per backend:
// each iteration restores one fixed crash state of a generated POSIX
// program (the shape of the benchmark's gen-posix cells) and runs Recover,
// Mount and Tree.Serialize on it, the work the engine does for every
// reconstructed state.
func BenchmarkRecoverMount(b *testing.B) {
	for _, fsName := range FSNames() {
		b.Run(fsName, func(b *testing.B) {
			fs, crashed := crashState(b, fsName)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Restore(crashed)
				if err := fs.Recover(); err != nil {
					b.Fatal(err)
				}
				tree, err := fs.Mount()
				if err != nil {
					b.Fatal(err)
				}
				treeSink = tree.Serialize()
			}
		})
	}
}

// crashState records generated program 1 on fsName and returns the file
// system with a snapshot of one crash state: every lowermost op of the run
// persisted except the middle one.
func crashState(b *testing.B, fsName string) (pfs.FileSystem, *pfs.State) {
	b.Helper()
	rec := trace.NewRecorder()
	fs, err := NewFS(fsName, ConfigFor(fsName), rec)
	if err != nil {
		b.Fatal(err)
	}
	w := workloads.Generate(workloads.DefaultGenConfig(1))
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		b.Fatal(err)
	}
	initial := fs.Snapshot()
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		b.Fatal(err)
	}
	rec.SetEnabled(false)
	lowermost := trace.Filter(rec.Ops(), func(o *trace.Op) bool { return o.IsLowermost() && o.Payload != nil })
	fs.Restore(initial)
	for i, o := range lowermost {
		if i != len(lowermost)/2 {
			_ = fs.ApplyLowermost(o) // an op that cannot apply is lost in the crash
		}
	}
	return fs, fs.Snapshot()
}
