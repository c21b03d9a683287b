package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"strconv"
	"time"

	"nova/graph"
)

// httpError pairs an error with the status it maps to on the wire.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(err error) *httpError { return &httpError{http.StatusBadRequest, err} }
func notFound(err error) *httpError   { return &httpError{http.StatusNotFound, err} }
func conflict(err error) *httpError   { return &httpError{http.StatusConflict, err} }
func unprocessable(err error) *httpError {
	return &httpError{http.StatusUnprocessableEntity, err}
}
func overloaded(err error) *httpError {
	return &httpError{http.StatusServiceUnavailable, err}
}

// registerError maps a registry failure onto the API's status contract:
// a container that fails checksum or structural validation is 422
// (the file exists but its content is rejected — graph.ErrCorrupt), a
// missing file is 404, a name collision is 409, anything else is 400.
func registerError(err error) *httpError {
	switch {
	case errors.Is(err, graph.ErrCorrupt):
		return unprocessable(err)
	case errors.Is(err, fs.ErrNotExist):
		return notFound(err)
	}
	if errors.Is(err, errAlreadyRegistered) {
		return conflict(err)
	}
	return badRequest(err)
}

// Handler returns the daemon's HTTP surface. Routes use Go 1.22 method
// + wildcard patterns; every response is JSON (NDJSON for /stream).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statsz", s.handleStats)
	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("POST /graphs", s.handleRegisterGraph)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleEvictGraph)
	mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /jobs", s.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancelJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleJobStream)
	return s.instrument(mux)
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the recorder.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with the request counter and latency
// histogram surfaced at /statsz.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.observeRequest(time.Since(start), rec.status)
	})
}

// apiError is the JSON body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *httpError) {
	writeJSON(w, e.status, apiError{Error: e.err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	dump := s.StatsDump()
	switch r.URL.Query().Get("format") {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_ = dump.WriteJSON(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = dump.WriteText(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = dump.WriteCSV(w)
	default:
		writeError(w, badRequest(fmt.Errorf("service: unknown format %q (want json, text, or csv)", r.URL.Query().Get("format"))))
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

// registerRequest is the POST /graphs body.
type registerRequest struct {
	// Name is the handle jobs use to select the graph.
	Name string `json:"name"`
	// Path is the .csr container on the server's filesystem.
	Path string `json:"path"`
}

func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, badRequest(err))
		return
	}
	info, err := s.reg.Register(req.Name, req.Path)
	if err != nil {
		writeError(w, registerError(err))
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleEvictGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Evict(name); err != nil {
		writeError(w, notFound(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": name})
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req := newJobRequest()
	if err := decodeBody(w, r, req); err != nil {
		writeError(w, badRequest(err))
		return
	}
	j, herr := s.submit(req)
	if herr != nil {
		writeError(w, herr)
		return
	}
	status := http.StatusAccepted
	if st := j.status(); st.State == JobDone {
		status = http.StatusOK // cache hits (and instant runs) are born done
	}
	writeJSON(w, status, j.status())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, notFound(fmt.Errorf("service: job %q not found", id)))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, body, errMsg := j.state, j.result, j.errMsg
	j.mu.Unlock()
	switch state {
	case JobQueued, JobRunning:
		writeError(w, conflict(fmt.Errorf("service: job %s is %s; result not ready", j.id, state)))
	case JobFailed:
		writeError(w, unprocessable(fmt.Errorf("service: job %s failed: %s", j.id, errMsg)))
	default:
		// The stored bytes are served verbatim: a cache hit returns the
		// cold run's exact rendering, bit for bit.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}
}

// handleJobStream serves NDJSON progress: one JobStatus line per beat
// sample (default every 200ms, tunable with ?interval_ms=) until the job
// finishes, then a final line with the terminal state.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	interval := 200 * time.Millisecond
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			writeError(w, badRequest(fmt.Errorf("service: bad interval_ms %q", v)))
			return
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() {
		_ = enc.Encode(j.status())
		if flusher != nil {
			flusher.Flush()
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		emit()
		select {
		case <-j.done:
			emit() // terminal state with final beat count
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// maxBodyBytes bounds a request body. A job request with every engine
// block spelled out is under 2 KB.
const maxBodyBytes = 1 << 20

// decodeBody decodes a request body that must be exactly one JSON value,
// with no unknown fields, of at most maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: decoding request body: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return errors.New("service: request body holds more than one JSON value")
	default:
		return fmt.Errorf("service: reading request body past its JSON value: %w", err)
	}
}
