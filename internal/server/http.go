package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mobisense/internal/metrics"
	"mobisense/internal/store"
)

// maxRequestBytes bounds submitted request bodies.
const maxRequestBytes = 1 << 20

// NewHandler exposes the manager over HTTP:
//
//	POST   /v1/runs             submit a single deployment
//	POST   /v1/sweeps           submit a sweep
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status, progress and (when done) aggregates
//	DELETE /v1/jobs/{id}        cancel (finished runs stay on disk)
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/jobs/{id}/records  stored per-run records (JSONL, ?format=csv)
//	GET    /v1/jobs/{id}/traces   aggregated per-group trace curves (JSON)
//	GET    /v1/jobs/{id}/store/{file}  raw store files for remote watchers
//	GET    /v1/schemes          scheme registry introspection
//	GET    /v1/scenarios        scenario registry introspection
//	GET    /v1/axes             built-in sweep axis names
//	GET    /metrics             Prometheus text exposition (?format=json for expvar-style JSON)
//	GET    /                    embedded live dashboard
//
// Every request gets a short id, attached to its access-log record and
// echoed in the X-Request-Id response header.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r, "run")
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		submit(m, w, r, "sweep")
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := m.Cancel(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/records", func(w http.ResponseWriter, r *http.Request) {
		serveRecords(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/traces", func(w http.ResponseWriter, r *http.Request) {
		serveTraces(m, w, r)
	})
	mux.HandleFunc("GET /v1/schemes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"schemes": m.Engine().Schemes()})
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"scenarios": m.Engine().Scenarios()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/store/{file}", func(w http.ResponseWriter, r *http.Request) {
		serveStoreFile(m, w, r)
	})
	mux.HandleFunc("GET /v1/axes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"axes": m.Engine().Axes()})
	})
	mux.HandleFunc("GET /metrics", serveMetrics)
	mountDashboard(mux)
	return logRequests(m.Logger(), mux)
}

// serveMetrics renders the process-wide registry: Prometheus text by
// default, the expvar-style JSON document with ?format=json.
func serveMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		metrics.Default.WritePrometheus(w)
	case "json":
		writeJSON(w, http.StatusOK, metrics.Default.Snapshot())
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want prometheus or json)", format)
	}
}

// serveStoreFile streams one raw file of a job's sweep store. The
// endpoints mirror the on-disk layout (manifest.json, records.jsonl,
// timing.jsonl), so a remote watcher can treat
// <server>/v1/jobs/<id>/store as a store directory: cmd/report's -watch
// polls exactly these URLs. A running job's records are trimmed to the
// last complete line, like the /records endpoint.
func serveStoreFile(m *Manager, w http.ResponseWriter, r *http.Request) {
	id, file := r.PathValue("id"), r.PathValue("file")
	v, ok := m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if v.CacheHit {
		writeError(w, http.StatusNotFound, "job %s was answered from the result cache and has no store of its own", id)
		return
	}
	var contentType string
	switch file {
	case "manifest.json":
		contentType = "application/json"
	case "records.jsonl", "timing.jsonl":
		contentType = "application/jsonl"
	default:
		writeError(w, http.StatusNotFound, "no store file %q (want manifest.json, records.jsonl or timing.jsonl)", file)
		return
	}
	data, err := os.ReadFile(filepath.Join(m.StoreDir(id), file))
	if err != nil {
		if file == "records.jsonl" || file == "timing.jsonl" {
			// A store exists once the manifest does; records may simply not
			// have been appended yet. Serving empty keeps remote watchers
			// polling instead of erroring out.
			if _, merr := os.Stat(filepath.Join(m.StoreDir(id), "manifest.json")); merr == nil {
				w.Header().Set("Content-Type", contentType)
				w.WriteHeader(http.StatusOK)
				return
			}
		}
		writeError(w, http.StatusNotFound, "job %s has no store yet", id)
		return
	}
	if file == "records.jsonl" {
		// Trim a possible torn tail mid-append.
		if i := bytes.LastIndexByte(data, '\n'); i < 0 {
			data = nil
		} else {
			data = data[:i+1]
		}
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// requestSeq numbers requests for the access log.
var requestSeq atomic.Uint64

// statusWriter records the response status for the access log while
// passing the Flusher through (SSE needs it).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

var (
	mHTTPGet   = metrics.Default.Counter(`http_requests_total{method="GET"}`)
	mHTTPOther = metrics.Default.Counter(`http_requests_total{method="other"}`)
)

// logRequests is the access-log middleware: every request gets a short
// id (echoed as X-Request-Id) and one structured record with method,
// path, status and duration.
func logRequests(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := fmt.Sprintf("r%06d", requestSeq.Add(1))
		w.Header().Set("X-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if r.Method == http.MethodGet {
			mHTTPGet.Inc()
		} else {
			mHTTPOther.Inc()
		}
		log.Info("http request", "request", rid, "method", r.Method,
			"path", r.URL.Path, "status", sw.status,
			"elapsed", time.Since(start).Round(time.Microsecond))
	})
}

// submit handles POST /v1/runs and /v1/sweeps. A cache hit answers 200
// with the finished job; a queued job answers 202.
func submit(m *Manager, w http.ResponseWriter, r *http.Request, kind string) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	if len(body) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request over %d bytes", maxRequestBytes)
		return
	}
	v, err := m.Submit(kind, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	if v.State.Terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, v)
}

// serveEvents streams a job's lifecycle as server-sent events: an initial
// "state" event, "progress" events as runs finish, and a final terminal
// "state" event after which the stream ends.
func serveEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, unsub, ok := m.Subscribe(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	defer unsub()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(ev.Payload)
			if err != nil {
				data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// serveRecords returns the job's stored per-run records: the raw
// records.jsonl by default, or a CSV rendering with ?format=csv. Jobs
// answered from the cache have no store of their own.
func serveRecords(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if v.CacheHit {
		writeError(w, http.StatusNotFound, "job %s was answered from the result cache and has no records of its own", id)
		return
	}
	dir := m.StoreDir(id)
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		data, err := os.ReadFile(filepath.Join(dir, "records.jsonl"))
		if err != nil {
			writeError(w, http.StatusNotFound, "job %s has no records yet", id)
			return
		}
		// A running job's writer may be mid-append; serve only complete
		// lines so clients never see a torn trailing record.
		if i := bytes.LastIndexByte(data, '\n'); i < 0 {
			data = nil
		} else {
			data = data[:i+1]
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	case "csv":
		_, recs, err := store.ReadDir(dir)
		if err != nil {
			writeError(w, http.StatusNotFound, "job %s has no records yet", id)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, recordsCSV(recs))
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want jsonl or csv)", format)
	}
}

// serveTraces returns the job's aggregated trace analytics: per
// (scheme, scenario, N, axis tuple) group mean curves with CI bands,
// computed by the engine from the job's store. Untraced jobs answer an
// empty list; cache-hit jobs have no store to aggregate.
func serveTraces(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if v.CacheHit {
		writeError(w, http.StatusNotFound, "job %s was answered from the result cache and has no store of its own", id)
		return
	}
	out, err := m.Engine().Traces(m.StoreDir(id))
	if err != nil {
		writeError(w, http.StatusNotFound, "job %s has no store yet", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// recordsCSV renders store records as per-run CSV rows (layouts
// omitted). Generalized axis assignments collapse into one
// "name=value;..." column so the header stays stable whatever axes a
// sweep used. encoding/csv handles quoting, so error messages with
// commas, quotes or newlines stay one row.
func recordsCSV(recs []store.Record) string {
	var sb strings.Builder
	cw := csv.NewWriter(&sb)
	cw.Write([]string{"index", "scheme", "scenario", "n", "repeat", "axes", "seed",
		"coverage", "coverage2", "alive", "avg_move_distance", "messages",
		"convergence_time", "connected", "err"})
	f6 := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	for _, rec := range recs {
		cw.Write([]string{
			strconv.Itoa(rec.Index), rec.Scheme, rec.Scenario,
			strconv.Itoa(rec.N), strconv.Itoa(rec.Repeat),
			store.AxesString(rec.Axes),
			strconv.FormatUint(rec.Seed, 10),
			f6(rec.Coverage), f6(rec.Coverage2), strconv.Itoa(rec.Alive),
			f6(rec.AvgMoveDistance), strconv.FormatInt(rec.Messages, 10),
			f6(rec.ConvergenceTime), strconv.FormatBool(rec.Connected), rec.Err,
		})
	}
	cw.Flush()
	return sb.String()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
