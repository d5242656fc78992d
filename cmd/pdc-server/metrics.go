package main

import (
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"pdcquery/internal/telemetry"
)

// serveMetrics starts the observability listener every pdc-server mode
// shares — the standalone daemon, a cluster member, the catalog — and
// returns the bound address, so ":0" listeners can report the real port
// in the PDC_METRICS handshake line ("" when the listen failed). It is
// meant for a loopback address.
func serveMetrics(addr, who string, metrics func() *telemetry.Registry, recorder func() *telemetry.Recorder) string {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg := metrics()
		// Fold live Go runtime health (heap, GC, scheduler latency) into
		// the scrape: the gauges land beside the query metrics, so one
		// endpoint answers both "is the service slow" and "is the process
		// sick".
		telemetry.SampleRuntime(reg)
		telemetry.WritePrometheus(w, reg)
	})
	// Live introspection: the flight-recorder ring as text, and the
	// standard pprof surface (profiles, goroutine dumps, heap).
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		events, total := recorder().SnapshotTotal()
		telemetry.WriteEvents(w, events, total)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("pdc-server %s: metrics listen %s: %v", who, addr, err)
		return ""
	}
	go func() {
		log.Printf("pdc-server %s: metrics on http://%s/metrics (debug: /debug/events, /debug/pprof)", who, lis.Addr())
		if err := http.Serve(lis, mux); err != nil {
			log.Printf("pdc-server: metrics server: %v", err)
		}
	}()
	return lis.Addr().String()
}
