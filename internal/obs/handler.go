package obs

import "net/http"

// Handler serves the registry and journal over HTTP:
//
//	/metrics       Prometheus text exposition (the scrape endpoint)
//	/metrics.json  the Snapshot as JSON
//	/trace         the trace journal, one line per event
//	/trace.json    the trace journal as JSON
//
// Either argument may be nil (its endpoints then serve 404). taurus-bench
// mounts it behind -metrics-addr.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = WritePrometheus(w, reg.Snapshot())
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
		})
	}
	if tr != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = tr.WriteText(w)
		})
		mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = tr.WriteJSON(w)
		})
	}
	return mux
}
