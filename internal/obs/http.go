package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Serve starts the opt-in diagnostics endpoint on addr:
//
//	/debug/pprof/*  net/http/pprof profiles (CPU, heap, goroutine, ...)
//	/debug/obs      the run's Summary as JSON
//	/metrics        the run's live samples in Prometheus text exposition
//
// It returns the bound address (useful with ":0") and a shutdown function.
// The run may be nil; the profiling endpoints still work.
func Serve(addr string, r *Run) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	// A single-collector router gives this endpoint the same exposition
	// shape as the daemon's fleet endpoint (fleet series only — one
	// process, no job labels).
	rt := NewRouter()
	rt.Attach("", r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", rt.PromHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out, err := r.SummaryJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(out)
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
