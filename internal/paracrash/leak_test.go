package paracrash_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak gate: once every test has run,
// the goroutine count must fall back to its value before them within 5 s,
// or the binary writes every live goroutine to stderr and fails. A fuzzing
// run is left out: the testing package's fuzzing coordinator keeps its own
// signal goroutine.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n", after, before)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		code = 1
	}
	os.Exit(code)
}
