package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// ContentType is the Prometheus text exposition content type served
// at /metrics.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewOpsMux returns the operations endpoint mux served by bdserved's
// ops listener:
//
//	/metrics      Prometheus text format for r, the registry's one
//	              exposition
//	/debug/vars   the process's expvar JSON (memstats, cmdline)
//	/debug/pprof  the standard pprof index and profiles
//	/debug/trace  the slot-event ring's last events as JSON Lines (a
//	              snapshot: reading it consumes nothing)
func NewOpsMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = r.WriteTo(w) // a write error is the client hanging up
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w) // a write error is the client hanging up
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
