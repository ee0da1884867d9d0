// Package serve turns the analytic oracle into a planning service —
// "oracle as a service". Projections are pure functions of (model,
// cluster, plan), which makes them ideal to serve at scale: requests
// are canonicalized into content-addressed keys, answered from a
// bounded LRU projection cache, and concurrent identical computations
// are deduplicated with singleflight so a thundering herd computes each
// grid exactly once.
//
// Endpoints (POST JSON unless noted):
//
//	/project  one (strategy, config) projection
//	/advise   every strategy projected and ranked for one config
//	/sweep    the full strategy × p grid, including hybrid p1×p2 shapes
//	/healthz  GET liveness probe with uptime and build info
//	/readyz   GET readiness probe: 503 while draining or queue-saturated
//	/metrics  GET request/cache/singleflight/latency counters (expvar)
//
// The planning endpoints sit behind an admission gate: a fixed number
// of concurrency slots with a bounded wait queue and per-request
// deadlines. Overload answers 503 + Retry-After instead of queueing
// unboundedly — pair with Client, which backs off with jitter.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"paradl/internal/cluster"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/metrics"
	"paradl/internal/model"
)

// DefaultCacheEntries bounds the LRU projection cache.
const DefaultCacheEntries = 4096

// maxRequestBytes bounds request bodies; planner requests are tiny.
const maxRequestBytes = 1 << 20

// Server is the concurrent HTTP planner.
type Server struct {
	mux   *http.ServeMux
	cache *lruCache
	group flightGroup
	met   *serverMetrics
	adm   *admission
	start time.Time
}

// Option configures a Server.
type Option func(*Server)

// WithCacheEntries bounds the projection cache to n entries.
func WithCacheEntries(n int) Option {
	return func(s *Server) { s.cache = newLRU(n) }
}

// WithAdmission bounds the planning endpoints to maxConcurrent
// in-flight requests with a wait queue of at most maxQueue; beyond
// that the server sheds with 503 + Retry-After.
func WithAdmission(maxConcurrent, maxQueue int) Option {
	return func(s *Server) {
		s.adm = newAdmission(maxConcurrent, maxQueue, s.adm.timeout)
	}
}

// WithRequestTimeout bounds each planning request's total time in the
// admission gate (queue wait included); an expired deadline sheds the
// request with 503.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.adm.timeout = d }
}

// New builds a planner server.
func New(opts ...Option) *Server {
	s := &Server{
		mux:   http.NewServeMux(),
		cache: newLRU(DefaultCacheEntries),
		met:   newMetrics(),
		adm:   newAdmission(DefaultMaxConcurrent, DefaultMaxQueue, DefaultRequestTimeout),
		start: time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("/project", s.endpoint("project"))
	s.mux.HandleFunc("/advise", s.endpoint("advise"))
	s.mux.HandleFunc("/sweep", s.endpoint("sweep"))
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/readyz", s.readyz)
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.met.writeJSON(w)
	})
	s.mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	return s
}

// Metrics exposes the server's metrics registry so other subsystems
// (e.g. a trace recorder via Recorder.PublishMetrics) can publish into
// the same /metrics/prom scrape.
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

// BeginDrain flips the server to not-ready and sheds all new planning
// work: readiness probes fail (so load balancers stop routing here)
// while /healthz keeps answering — the process is alive, just leaving.
// In-flight requests are unaffected; pair with http.Server.Shutdown.
func (s *Server) BeginDrain() { s.adm.draining.Store(true) }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Health is the /healthz payload: liveness plus enough identity to
// tell which build of the planner answered and for how long it has
// been up.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Module        string  `json:"module,omitempty"`
	Revision      string  `json:"revision,omitempty"`
}

// healthz answers the liveness probe with uptime and build info.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				h.Revision = kv.Value
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// readyz answers the readiness probe: 200 while the server is taking
// work, 503 with a reason while it is draining or its admission queue
// is saturated. Distinct from /healthz on purpose — an overloaded
// planner is alive (don't restart it) but should get no new traffic.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.adm.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case s.adm.saturated():
		status, code = "saturated", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.Header().Set("Retry-After", s.adm.retryAfterHeader())
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"status": status})
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats { return s.met.stats() }

// CacheLen reports the live entry count of the projection cache.
func (s *Server) CacheLen() int { return s.cache.len() }

// endpoint wraps one planning endpoint with the shared request
// pipeline: decode → canonicalize → content-addressed cache →
// singleflight compute → respond.
func (s *Server) endpoint(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.requests.With(name).Inc()
		defer func() { s.met.observe(time.Since(start)) }()

		if r.Method != http.MethodPost {
			s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST a JSON request to /%s", name))
			return
		}
		// Per-request deadline covers the whole stay in the gate; shed
		// with 503 + Retry-After rather than queue without bound.
		ctx, cancel := context.WithTimeout(r.Context(), s.adm.timeout)
		defer cancel()
		release, aerr := s.adm.acquire(ctx)
		if aerr != nil {
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", s.adm.retryAfterHeader())
			s.fail(w, http.StatusServiceUnavailable, aerr)
			return
		}
		defer release()
		var req Request
		if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes)).Decode(&req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
			return
		}
		req, err := req.normalize(name)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		key := req.key(name)
		if body, ok := s.cache.get(key); ok {
			s.met.hits.Add(1)
			s.respond(w, body)
			return
		}
		s.met.misses.Add(1)
		body, err, shared := s.group.Do(key, func() ([]byte, error) {
			s.met.computations.Add(1)
			out, err := s.compute(name, req)
			if err != nil {
				return nil, err
			}
			s.cache.put(key, out)
			return out, nil
		})
		if shared {
			s.met.coalesced.Add(1)
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		s.respond(w, body)
	}
}

func (s *Server) respond(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.met.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// compute evaluates one normalized request. Responses are deterministic
// functions of the canonical request — core.Project is pure and the
// wire encoding is stable — which is what makes them cacheable bytes.
func (s *Server) compute(endpoint string, req Request) ([]byte, error) {
	switch endpoint {
	case "project":
		cfg, err := req.configRef().Resolve()
		if err != nil {
			return nil, err
		}
		strat, err := core.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		pr, err := core.Project(cfg, strat)
		if err != nil {
			return nil, err
		}
		s.met.projections.Add(1)
		return json.Marshal(pr)
	case "advise":
		cfg, err := req.configRef().Resolve()
		if err != nil {
			return nil, err
		}
		advs, err := core.Advise(cfg)
		if err != nil {
			return nil, err
		}
		s.met.projections.Add(float64(len(advs)))
		return json.Marshal(advs)
	case "sweep":
		resp, n, err := sweepGrid(req)
		if err != nil {
			return nil, err
		}
		s.met.projections.Add(float64(n))
		return json.Marshal(resp)
	}
	return nil, fmt.Errorf("serve: unknown endpoint %q", endpoint)
}

// SweepPoint is one (plan, p) grid point of a /sweep response.
type SweepPoint struct {
	// Plan is the canonical plan string ("data:8", "df:4x2").
	Plan string `json:"plan"`
	// P is the total PE count of the point.
	P int `json:"p"`
	// Projection is the oracle output; omitted when the point errored.
	Projection *core.Projection `json:"projection,omitempty"`
	// Error reports a point that could not be projected.
	Error string `json:"error,omitempty"`
}

// SweepResponse is the /sweep payload: the full strategy × p grid.
type SweepResponse struct {
	Model   string       `json:"model"`
	Cluster string       `json:"cluster"`
	Points  []SweepPoint `json:"points"`
}

// sweepGrid projects the full grid for a normalized sweep request,
// resolving the model once and reusing per-layer profiles across
// points with equal per-PE batch. Every point's Config is identical to
// what its ConfigRef would Resolve to, so point projections are
// bit-identical to single /project answers for the same config.
func sweepGrid(req Request) (*SweepResponse, int, error) {
	m, err := model.ByName(req.Model)
	if err != nil {
		return nil, 0, err
	}
	sys, err := cluster.ByName(req.Cluster)
	if err != nil {
		return nil, 0, err
	}
	var profiles core.ProfileMemo // one per request: nothing outlives it

	resp := &SweepResponse{Model: m.Name, Cluster: sys.Name}
	projections := 0
	for _, p := range req.PS {
		b := req.BatchGlobal
		if b == 0 {
			b = req.Batch * p
		}
		for _, pl := range dist.SweepPlans(p) {
			cfg := pl.Apply(core.NewConfig(m, sys, req.D, b, p, 0, &profiles))
			cfg.Segments, cfg.Phi = req.Segments, req.Phi
			cfg.OptimizerExtraState = req.OptimizerExtraState
			point := SweepPoint{Plan: pl.String(), P: p}
			pr, err := core.Project(cfg, pl.Strategy)
			if err != nil {
				point.Error = err.Error()
			} else {
				point.Projection = pr
				projections++
			}
			resp.Points = append(resp.Points, point)
		}
	}
	return resp, projections, nil
}
