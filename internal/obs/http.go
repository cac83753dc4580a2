package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// Mount serves r on mux: Prometheus text at GET /metrics, the JSON
// snapshot at GET /metrics.json.
func Mount(mux *http.ServeMux, r *Registry) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// NewMux returns the debug mux: the registry (Mount) and the /debug/pprof
// endpoints.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	Mount(mux, r)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ShutdownGrace bounds how long Serve's shutdown func waits for in-flight
// scrapes before closing remaining connections hard.
const ShutdownGrace = 5 * time.Second

// Serve starts the debug HTTP server on addr in the background and
// returns the bound address (useful with ":0") and a shutdown func. The
// shutdown func drains gracefully: it stops accepting new connections and
// waits up to ShutdownGrace for in-flight scrapes to complete (a plain
// Close would drop a scrape that raced process exit). Callers should
// defer it so final /metrics reads observe the complete run.
func Serve(addr string, r *Registry) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}

// DumpJSONFile writes the registry snapshot to path ("-" means stdout).
func DumpJSONFile(path string, r *Registry) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
