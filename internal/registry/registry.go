// Package registry is the remote model registry — the control plane
// that lets N serving nodes share one trainer (ROADMAP item 2, the
// paper's autonomic-fleet framing). One writer (the training pipeline,
// cmd/f2pm -publish) PUTs modelio deployment envelopes; any number of
// serving nodes (cmd/fms -registry, serve.HTTPModelSource) poll with
// conditional GETs, heartbeat their health, and keep serving their
// last-good model when the registry is down — the registry is a
// convergence point, never a single point of failure for predictions.
//
// The wire protocol (see docs/registry-protocol.md):
//
//	GET  /v1/model      the current envelope; strong ETag; 304 on
//	                    If-None-Match hit; 404 before the first publish
//	PUT  /v1/model      publish an envelope (validated by loading it);
//	                    idempotent — identical bytes keep the version
//	POST /v1/heartbeat  node liveness + convergence report
//	GET  /v1/health     fleet view: model version/ETag + per-node state
//	GET  /v1/healthz    registry liveness probe
//
// The ETag is the hex SHA-256 of the envelope bytes, quoted — a strong
// validator that changes iff the bytes change, so a republished
// identical model costs every node one 304 and nothing else.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/ml/modelio"
)

// Published describes one accepted publish — the hook payload for
// persistence (cmd/fmr -persist) and logging.
type Published struct {
	// Version counts accepted publishes that changed the envelope
	// (starts at 1).
	Version uint64
	// ETag is the strong entity tag of the new envelope.
	ETag string
	// Kind is the model kind inside the envelope ("linear", "lssvm",
	// ...).
	Kind string
	// Data is the envelope bytes as received (callers must not mutate).
	Data []byte
}

// Heartbeat is one serving node's report: who it is, which envelope it
// serves, and whether it is serving stale (the node-side
// stale-while-revalidate flag).
type Heartbeat struct {
	// Node identifies the serving node (hostname, pod name, ...).
	Node string `json:"node"`
	// ETag is the envelope the node last fetched successfully.
	ETag string `json:"etag,omitempty"`
	// ModelVersion is the node's local registry version (its own
	// Deploy counter, not the control plane's publish version).
	ModelVersion uint64 `json:"model_version,omitempty"`
	// Sessions and Predictions are the node's serving counters.
	Sessions    int    `json:"sessions"`
	Predictions uint64 `json:"predictions"`
	// Stale reports the node is serving its last-good model because
	// its registry polls are failing; StaleAgeSec is for how long.
	Stale       bool    `json:"stale,omitempty"`
	StaleAgeSec float64 `json:"stale_age_sec,omitempty"`
	// LastError is the node's most recent poll failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// NodeHealth is one node's row in the fleet health view.
type NodeHealth struct {
	Heartbeat
	// AgeSec is how long ago the node last heartbeat.
	AgeSec float64 `json:"age_sec"`
	// Alive is AgeSec within the liveness window.
	Alive bool `json:"alive"`
	// Current is ETag == the registry's current envelope — the node
	// has converged to the published model.
	Current bool `json:"current"`
}

// Health is the fleet view served at /v1/health.
type Health struct {
	// ModelVersion/ModelETag/ModelKind describe the current envelope
	// (version 0 and empty tags before the first publish).
	ModelVersion uint64 `json:"model_version"`
	ModelETag    string `json:"model_etag,omitempty"`
	ModelKind    string `json:"model_kind,omitempty"`
	// Nodes is the per-node state, sorted by node id.
	Nodes []NodeHealth `json:"nodes"`
	// AliveNodes/StaleNodes summarize the fleet.
	AliveNodes int `json:"alive_nodes"`
	StaleNodes int `json:"stale_nodes"`
}

// PublishResult is the PUT /v1/model response body.
type PublishResult struct {
	Version uint64 `json:"version"`
	ETag    string `json:"etag"`
	// Changed is false when the published bytes were identical to the
	// current envelope (idempotent republish).
	Changed bool `json:"changed"`
}

// Option configures a Server.
type Option func(*Server)

// WithClock sets the server's time source (default time.Now) — tests
// and simulations drive heartbeat aging deterministically.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithLivenessWindow sets how stale a heartbeat may be before the node
// counts as dead in the health view (default 30 s).
func WithLivenessWindow(d time.Duration) Option {
	return func(s *Server) { s.liveFor = d }
}

// WithPublishHook registers a callback invoked after every accepted
// publish that changed the envelope — the persistence hook (cmd/fmr
// writes the envelope to disk so a restarted registry still serves it).
// Called with the server lock released.
func WithPublishHook(fn func(Published)) Option {
	return func(s *Server) { s.onPublish = fn }
}

// WithMaxEnvelopeBytes caps accepted PUT bodies (default 64 MiB).
func WithMaxEnvelopeBytes(n int64) Option {
	return func(s *Server) { s.maxBytes = n }
}

// nodeState is one node's last heartbeat plus its arrival time.
type nodeState struct {
	hb   Heartbeat
	seen time.Time
}

// Server is the registry control plane: the current deployment
// envelope with its strong ETag, and the node heartbeat table. It
// implements http.Handler; all methods are safe for concurrent use.
type Server struct {
	now       func() time.Time
	liveFor   time.Duration
	onPublish func(Published)
	maxBytes  int64

	mu      sync.Mutex
	data    []byte
	etag    string
	kind    string
	version uint64
	nodes   map[string]*nodeState
}

// New builds a registry server with no model published yet. Seed it
// with SetModel (cmd/fmr -model / -persist) or a client PUT.
func New(opts ...Option) *Server {
	s := &Server{
		now:      time.Now,
		liveFor:  30 * time.Second,
		maxBytes: 64 << 20,
		nodes:    map[string]*nodeState{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// etagOf derives the strong entity tag: quoted hex SHA-256 of the
// envelope bytes. Identical bytes always map to an identical tag;
// any byte change changes it.
func etagOf(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// SetModel validates and installs an envelope, returning the publish
// outcome. Garbage (anything modelio cannot load — wrong format,
// unknown kind, truncated JSON) is rejected with the load error and
// the current envelope keeps serving. Publishing bytes identical to
// the current envelope is a no-op: same ETag, same version. The caller
// keeps data; the registry stores a copy.
func (s *Server) SetModel(data []byte) (PublishResult, error) {
	return s.publish(bytes.Clone(data))
}

// publish is SetModel for bytes the registry owns from here on (the PUT
// handler's freshly read body).
func (s *Server) publish(data []byte) (PublishResult, error) {
	m, _, err := modelio.LoadWithMeta(bytes.NewReader(data))
	if err != nil {
		return PublishResult{}, fmt.Errorf("registry: rejected envelope: %w", err)
	}
	tag := etagOf(data)
	s.mu.Lock()
	if s.etag == tag {
		res := PublishResult{Version: s.version, ETag: tag}
		s.mu.Unlock()
		return res, nil
	}
	s.data = data
	s.etag = tag
	s.kind = m.Name()
	s.version++
	res := PublishResult{Version: s.version, ETag: tag, Changed: true}
	pub := Published{Version: s.version, ETag: tag, Kind: s.kind, Data: s.data}
	hook := s.onPublish
	s.mu.Unlock()
	if hook != nil {
		hook(pub)
	}
	return res, nil
}

// Model returns the current envelope bytes (a copy) and ETag; ok is
// false before the first publish.
func (s *Server) Model() (data []byte, etag string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		return nil, "", false
	}
	return append([]byte(nil), s.data...), s.etag, true
}

// Version returns the current publish version (0 before the first
// publish).
func (s *Server) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// RecordHeartbeat installs one node report (the POST /v1/heartbeat
// core, exported for in-process use).
func (s *Server) RecordHeartbeat(hb Heartbeat) error {
	if hb.Node == "" {
		return fmt.Errorf("registry: heartbeat without a node id")
	}
	s.mu.Lock()
	s.nodes[hb.Node] = &nodeState{hb: hb, seen: s.now()}
	s.mu.Unlock()
	return nil
}

// Health assembles the fleet view: the current model plus every node's
// last heartbeat, aged against the liveness window.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	h := Health{ModelVersion: s.version, ModelETag: s.etag, ModelKind: s.kind}
	ids := make([]string, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ns := s.nodes[id]
		age := now.Sub(ns.seen)
		if age < 0 {
			age = 0
		}
		nh := NodeHealth{
			Heartbeat: ns.hb,
			AgeSec:    age.Seconds(),
			Alive:     age <= s.liveFor,
			Current:   s.etag != "" && ns.hb.ETag == s.etag,
		}
		if nh.Alive {
			h.AliveNodes++
		}
		if nh.Stale {
			h.StaleNodes++
		}
		h.Nodes = append(h.Nodes, nh)
	}
	return h
}

// ServeHTTP implements http.Handler — the five-endpoint protocol.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/model":
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			s.handleGetModel(w, r)
		case http.MethodPut:
			s.handlePutModel(w, r)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case "/v1/heartbeat":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleHeartbeat(w, r)
	case "/v1/health":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, s.Health())
	case "/v1/healthz":
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	default:
		http.NotFound(w, r)
	}
}

// handleGetModel serves the envelope with its strong ETag, honoring
// If-None-Match (304 with no body on a hit — the steady-state poll
// cost of a converged fleet).
func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	data, etag := s.data, s.etag
	s.mu.Unlock()
	if data == nil {
		http.Error(w, "no model published", http.StatusNotFound)
		return
	}
	// If-None-Match may carry several tags; strong comparison — exact
	// match on the quoted tag (a W/ prefix never matches a strong tag).
	for _, cand := range splitETags(r.Header.Get("If-None-Match")) {
		if cand == etag || cand == "*" {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(data)
}

// handlePutModel accepts a publish: the body must load as a modelio
// envelope (any format version modelio reads) or the request is rejected
// with 400 and the current model keeps serving.
func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBytes+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > s.maxBytes {
		http.Error(w, "envelope too large", http.StatusRequestEntityTooLarge)
		return
	}
	res, err := s.publish(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("ETag", res.ETag)
	writeJSON(w, http.StatusOK, res)
}

// handleHeartbeat decodes and records one node report.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&hb); err != nil {
		http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.RecordHeartbeat(hb); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The response carries the current ETag so a heartbeating node
	// learns it has fallen behind without waiting for its next poll.
	s.mu.Lock()
	etag := s.etag
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"model_etag": etag})
}

// splitETags parses an If-None-Match header into candidate tags.
func splitETags(h string) []string {
	if h == "" {
		return nil
	}
	var out []string
	for _, part := range bytes.Split([]byte(h), []byte(",")) {
		if t := string(bytes.TrimSpace(part)); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
