package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
)

// ContentType is the Prometheus text exposition content type served
// by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving r in Prometheus text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = r.WriteTo(w)
	})
}

// publishOnce guards the expvar registration: expvar.Publish panics on
// duplicate names, and an ops mux may be built more than once per
// process (tests, restart-in-place).
var publishOnce sync.Once

// NewOpsMux returns the operations endpoint mux served by bdserved's
// ops listener:
//
//	/metrics      Prometheus text format for r
//	/debug/vars   expvar JSON, including a "pinbcast" var holding the
//	              registry's JSON snapshot
//	/debug/pprof  the standard pprof index and profiles
//	/debug/trace  the slot-event ring's last events as JSON Lines (a
//	              snapshot: reading it consumes nothing)
func NewOpsMux(r *Registry) *http.ServeMux {
	publishOnce.Do(func() {
		expvar.Publish("pinbcast", expvar.Func(func() any {
			var b strings.Builder
			if err := std.WriteJSON(&b); err != nil {
				return map[string]string{"error": err.Error()}
			}
			// Re-decode so expvar embeds structured JSON, not a string.
			return jsonRaw(b.String())
		}))
	})

	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
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

// jsonRaw marks a string as pre-encoded JSON for expvar.
type jsonRaw string

// String returns the raw JSON; expvar.Func stringifies via
// MarshalJSON-compatible fmt, and expvar calls String for Var values —
// returning the JSON verbatim embeds it structurally in /debug/vars.
func (j jsonRaw) String() string { return string(j) }

// MarshalJSON embeds the pre-encoded snapshot verbatim.
func (j jsonRaw) MarshalJSON() ([]byte, error) { return []byte(j), nil }
