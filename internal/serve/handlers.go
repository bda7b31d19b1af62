package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"piileak/internal/detect"
)

// maxSpecBytes bounds a submission body; specs are small JSON
// documents, and an unbounded read is an admission-control hole.
const maxSpecBytes = 1 << 20

// Handler wires the service API:
//
//	POST /v1/jobs                submit a Spec; 201, 400, 429 (+Retry-After), 503
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           one job's status
//	POST /v1/jobs/{id}/cancel    cancel a queued or running job
//	GET  /v1/jobs/{id}/events    SSE progress stream (Last-Event-ID resume;
//	                             ?format=jsonl for JSON lines)
//	GET  /v1/jobs/{id}/leaks     the leak dataset (piicrawl-identical bytes)
//	GET  /v1/jobs/{id}/tables/{n} table n ∈ {1,2,4} as text
//	GET  /v1/jobs/{id}/metrics   the job's deterministic metrics JSON
//	GET  /healthz                liveness + drain state
//	GET  /metrics                server counters + engine build cache stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/leaks", s.handleLeaks)
	mux.HandleFunc("GET /v1/jobs/{id}/tables/{n}", s.handleTable)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON renders one API response document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// apiError is the JSON error body every failure path returns. Error
// text names specs, states and infrastructure failures — handlers never
// echo persona PII (piilint's piilog analyzer watches these sinks).
func apiError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// decodeSpec reads a submitted spec: a JSON object whose fields are all
// Spec's, unknown ones refused.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		var sat *SaturatedError
		switch {
		case errors.As(err, &sat):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(sat.RetryAfter)))
			apiError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
			apiError(w, http.StatusServiceUnavailable, err.Error())
		default:
			apiError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, job.View())
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — zero would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, views)
}

// jobFor resolves the path's job or writes the 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		apiError(w, http.StatusNotFound, "no job "+id)
		return nil, false
	}
	return job, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	job, err := s.Cancel(job.ID)
	if err != nil {
		apiError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

// resultFile serves one finished job's result file; earlier states are
// a 409 so a polling client can distinguish "not done yet" from "gone".
func (s *Server) resultFile(w http.ResponseWriter, r *http.Request, name, contentType string) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if job.State != StateDone {
		apiError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, results exist only for done jobs", job.ID, job.State))
		return
	}
	data, err := os.ReadFile(filepath.Join(s.store.JobDir(job.ID), name))
	if err != nil {
		apiError(w, http.StatusInternalServerError, "result file: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data) //nolint:errcheck // client disconnects are not server errors
}

func (s *Server) handleLeaks(w http.ResponseWriter, r *http.Request) {
	s.resultFile(w, r, FileLeaks, "application/json")
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	s.resultFile(w, r, FileMetrics, "application/json")
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	switch r.PathValue("n") {
	case "1":
		s.resultFile(w, r, FileTable1, "text/plain; charset=utf-8")
	case "2":
		s.resultFile(w, r, FileTable2, "text/plain; charset=utf-8")
	case "4":
		s.resultFile(w, r, FileTable4, "text/plain; charset=utf-8")
	default:
		apiError(w, http.StatusNotFound, "tables 1, 2 and 4 are served; see the paper")
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": s.Draining(),
	})
}

// handleMetrics exports the server's own counters plus the process-wide
// engine build cache's hit/miss counts — the multi-tenant sharing
// signal: two jobs with the same persona/config show one miss and one
// hit here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := detect.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"engine_cache": map[string]uint64{"hits": hits, "misses": misses},
		"server":       s.run.Snapshot(),
	})
}

// handleEvents streams a job's progress. SSE by default; ?format=jsonl
// switches to one Event JSON document per line. Replay starts after the
// Last-Event-ID header (or ?after=N); the stream ends when the job
// reaches a terminal state in this process, the client disconnects, or
// the subscriber falls too far behind (reconnect with Last-Event-ID to
// resume — crash-only applies to streams too).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}
	jsonl := r.URL.Query().Get("format") == "jsonl"

	flusher, canFlush := w.(http.Flusher)
	if jsonl {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	}
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := s.log(job.ID).Subscribe(after)
	defer cancel()
	emit := func(ev Event) bool {
		var err error
		if jsonl {
			var line []byte
			line, err = json.Marshal(ev)
			if err == nil {
				_, err = w.Write(append(line, '\n'))
			}
		} else {
			_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Kind, ev.Data)
		}
		if err != nil {
			return false
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-live:
			if !open {
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}
