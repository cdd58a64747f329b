package main

// HTTP export surface: -http serves the same registry two ways, the
// Prometheus text exposition on /metrics (scrapeable by a stock
// Prometheus, stdlib only) and the procfs stats view on /stats. Both
// handlers take only the registry's own locks, so they are safe to hit
// while the simulation runs.

import (
	"fmt"
	"net"
	"net/http"

	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/obs"
)

// prometheusContentType is the text exposition format version the stdlib
// renderer emits.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricsHandler serves the registry in Prometheus text exposition format.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", prometheusContentType)
		_ = reg.WritePrometheus(w)
	}
}

// statsHandler serves the procfs stats view as plain text.
func statsHandler(fs *kernel.ProcFS) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		out, err := fs.Read(kernel.ProcStats)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out)
	}
}

// newMux wires the daemon's HTTP surface.
func newMux(sys *machine.Machine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", metricsHandler(sys.Obs()))
	mux.HandleFunc("/stats", statsHandler(sys.ProcFS()))
	return mux
}

// serveMetrics binds addr and serves the mux in the background. The
// returned server is closed by the caller; the listener's address is
// printed so ":0" works in tests and scripts.
func serveMetrics(addr string, sys *machine.Machine) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: newMux(sys)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
