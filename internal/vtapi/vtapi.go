// Package vtapi exposes the simulated VirusTotal service over HTTP,
// mirroring the v3 endpoints the paper describes in §2.1:
//
//	POST /api/v3/files                 upload & analyze a file
//	GET  /api/v3/files/{id}            fetch the latest report
//	POST /api/v3/files/{id}/analyse    rescan an existing file
//	GET  /api/v3/feed/reports          premium feed slice (?from=&to=, Unix seconds)
//	GET  /healthz                      liveness
//	GET  /metricsz                     metrics (Prometheus text; ?format=json)
//
// Responses use the VT-v3-style JSON envelope from internal/report;
// errors use VT's {"error": {"code", "message"}} shape. Because the
// simulator has no file bytes, the upload body carries a descriptor
// with the sample's latent attributes instead of multipart content.
package vtapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/vtsim"
)

// UploadDescriptor is the upload request body.
type UploadDescriptor struct {
	SHA256        string  `json:"sha256"`
	FileType      string  `json:"file_type"`
	Size          int64   `json:"size"`
	Malicious     bool    `json:"malicious"`
	Detectability float64 `json:"detectability"`
}

// apiError is VT's error envelope.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Server wraps a vtsim.Service with the HTTP surface.
type Server struct {
	svc      *vtsim.Service
	mux      *http.ServeMux
	log      *log.Logger
	auth     *auth
	faults   *faultInjector
	faultCfg *FaultConfig
	reg      *obs.Registry
	latency  map[string]*obs.Histogram
}

// WithMetrics routes the server's instrumentation (per-endpoint
// request counts and latency, fault-injector outcomes) into reg
// instead of the process-wide default registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// NewServer builds the HTTP surface over the service. logger may be
// nil to disable request logging; pass WithAuth to require API keys
// and enforce tier quotas.
func NewServer(svc *vtsim.Service, logger *log.Logger, opts ...Option) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), log: logger}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.Default()
	}
	// The fault injector is wired after the options so WithFaults and
	// WithMetrics compose in either order.
	if s.faultCfg != nil {
		s.faults = newFaultInjector(*s.faultCfg, s.reg)
	}
	// Latency histograms are per endpoint (no status label), so the
	// handful of series can be resolved once, not per request.
	s.latency = make(map[string]*obs.Histogram, len(endpoints))
	for _, ep := range endpoints {
		s.latency[ep] = s.reg.Histogram("api_request_seconds", obs.DefBuckets, "endpoint", ep)
	}
	s.mux.HandleFunc("POST /api/v3/files", s.handleUpload)
	s.mux.HandleFunc("GET /api/v3/files/{id}", s.handleReport)
	s.mux.HandleFunc("POST /api/v3/files/{id}/analyse", s.handleRescan)
	s.mux.HandleFunc("GET /api/v3/feed/reports", s.handleFeed)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("GET /metricsz", s.reg.Handler())
	return s
}

// endpoints are the label values api_requests_total/api_request_seconds
// partition the surface into.
var endpoints = []string{"upload", "report", "rescan", "feed", "other"}

// endpointOf maps a request onto its metrics label without consulting
// the mux (the request may never reach it).
func endpointOf(r *http.Request) string {
	path := r.URL.Path
	switch {
	case path == "/api/v3/files" && r.Method == http.MethodPost:
		return "upload"
	case path == "/api/v3/feed/reports":
		return "feed"
	case strings.HasPrefix(path, "/api/v3/files/"):
		if strings.HasSuffix(path, "/analyse") && r.Method == http.MethodPost {
			return "rescan"
		}
		return "report"
	default:
		return "other"
	}
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// exempt marks the operational endpoints that bypass faults, auth,
// and request accounting — probes and scrapes must always work, and
// keeping them out of api_requests_total preserves the identity
// api_requests_total == api_faults_total{passed + injected}.
func exempt(path string) bool { return path == "/healthz" || path == "/metricsz" }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.log != nil {
		s.log.Printf("%s %s", r.Method, r.URL.Path)
	}
	if exempt(r.URL.Path) {
		s.mux.ServeHTTP(w, r)
		return
	}
	endpoint := endpointOf(r)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.serveCounted(sw, r)
	s.latency[endpoint].ObserveDuration(time.Since(start))
	s.reg.Counter("api_requests_total",
		"endpoint", endpoint, "code", strconv.Itoa(sw.status)).Inc()
}

// serveCounted is the faults → auth → mux pipeline every counted
// request flows through. Injected faults fire first, like
// infrastructure failing in front of the application.
func (s *Server) serveCounted(w http.ResponseWriter, r *http.Request) {
	if s.faults != nil && s.faults.intercept(w, r) {
		return
	}
	if s.auth != nil {
		if !s.auth.check(w, r) {
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// maxUploadBody bounds an upload request body. A descriptor is a few
// hundred bytes of JSON; the handler stops reading past this bound.
const maxUploadBody = 64 << 10

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var desc UploadDescriptor
	r.Body = http.MaxBytesReader(w, r.Body, maxUploadBody)
	if err := json.NewDecoder(r.Body).Decode(&desc); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "BadRequestError",
				fmt.Sprintf("upload descriptor exceeds %d bytes", maxUploadBody))
			return
		}
		writeError(w, http.StatusBadRequest, "BadRequestError", "malformed upload descriptor")
		return
	}
	if desc.SHA256 == "" {
		writeError(w, http.StatusBadRequest, "BadRequestError", "sha256 is required")
		return
	}
	env, err := s.svc.Upload(vtsim.UploadRequest{
		SHA256:        desc.SHA256,
		FileType:      desc.FileType,
		Size:          desc.Size,
		Malicious:     desc.Malicious,
		Detectability: desc.Detectability,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "BadRequestError", err.Error())
		return
	}
	writeEnvelope(w, http.StatusOK, env)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	env, err := s.svc.Report(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeEnvelope(w, http.StatusOK, env)
}

func (s *Server) handleRescan(w http.ResponseWriter, r *http.Request) {
	env, err := s.svc.Rescan(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeEnvelope(w, http.StatusOK, env)
}

func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	from, err1 := parseUnix(r.URL.Query().Get("from"))
	to, err2 := parseUnix(r.URL.Query().Get("to"))
	if err1 != nil || err2 != nil || !to.After(from) {
		writeError(w, http.StatusBadRequest, "BadRequestError",
			"from and to must be Unix seconds with to > from")
		return
	}
	// Optional page cap: a lagging consumer bounds each response
	// instead of pulling the whole backlog in one body.
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "BadRequestError",
				"limit must be a positive integer")
			return
		}
		limit = n
	}
	envs := s.svc.FeedBetweenLimit(from, to, limit)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Stream as a JSON array of wire envelopes, one pooled encode
	// buffer reused across elements. Byte-for-byte the old
	// json.Encoder framing: each element is followed by '\n'.
	buf := bufpool.GetBuf()
	defer bufpool.PutBuf(buf)
	if _, err := w.Write([]byte("[")); err != nil {
		return
	}
	for i := range envs {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = envs[i].AppendJSON(buf)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
	w.Write([]byte("]"))
}

func parseUnix(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, errors.New("missing")
	}
	sec, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(sec, 0).UTC(), nil
}

func writeServiceError(w http.ResponseWriter, err error) {
	if errors.Is(err, vtsim.ErrUnknownSample) {
		writeError(w, http.StatusNotFound, "NotFoundError", err.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, "InternalError", err.Error())
}

func writeEnvelope(w http.ResponseWriter, status int, env report.Envelope) {
	// Hand-rolled encode into a pooled buffer; the trailing newline
	// keeps the body identical to the json.Encoder framing clients saw
	// before.
	buf := env.AppendJSON(bufpool.GetBuf())
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
	bufpool.PutBuf(buf)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var e apiError
	e.Error.Code = code
	e.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e)
}
