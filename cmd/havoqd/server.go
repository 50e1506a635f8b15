package main

// HTTP layer of havoqd: one JSON front end, the same for the single-process
// server and the cluster coordinator, fronted by the traffic plane
// (internal/traffic). Every POST /query passes, in order: per-tenant quota
// admission (batched token buckets), validation against the engine's
// query-type table, the versioned result cache, and hot-query collapsing —
// so under the hot-key skew that scale-free graphs attract, most requests
// never reach the engine at all, and the ones that do are one execution
// shared by many clients, run by the recovery ladder. Only the ladder's
// submit and retryable set differ between the modes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"havoqgt"
	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/cluster"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
	"havoqgt/internal/traffic"
)

// queryRequest is the POST /query body.
type queryRequest struct {
	// Algo selects the query: "bfs", "bfs_do" (direction-optimizing BFS,
	// identical levels), "sssp", "cc", "kcore", "pagerank", or "triangles".
	Algo string `json:"algo"`
	// Source is the start vertex for bfs, bfs_do, and sssp.
	Source uint64 `json:"source"`
	// WeightSeed keys the synthesized edge weights for sssp.
	WeightSeed uint64 `json:"weight_seed"`
	// K is the core number for kcore (>= 1).
	K uint32 `json:"k"`
	// Iters is the pagerank iteration count (0 = default).
	Iters uint32 `json:"iters"`
	// DeadlineMS cancels the query if it is still running after this many
	// milliseconds (0 = server default).
	DeadlineMS int64 `json:"deadline_ms"`
	// Full includes the per-vertex result arrays in the response; by default
	// only the scalar summary is returned.
	Full bool `json:"full"`
}

// queryResponse is the POST /query reply. Scalar summary fields are always
// present for the relevant algorithm; the per-vertex arrays only with
// "full": true. Collapsed and cached requests share the executing request's
// response verbatim (including ID and ElapsedMS) — the X-Traffic-Outcome
// header says which path served it.
type queryResponse struct {
	ID        uint32  `json:"id"`
	Algo      string  `json:"algo"`
	ElapsedMS float64 `json:"elapsed_ms"`

	Reached    uint64 `json:"reached,omitempty"`
	MaxLevel   uint32 `json:"max_level,omitempty"`
	MaxDist    uint64 `json:"max_dist,omitempty"`
	Components uint64 `json:"components,omitempty"`
	CoreSize   uint64 `json:"core_size,omitempty"`
	Triangles  uint64 `json:"triangles,omitempty"`
	Iters      uint32 `json:"iters,omitempty"`

	Levels    []uint32         `json:"levels,omitempty"`
	Distances []uint64         `json:"distances,omitempty"`
	Parents   []havoqgt.Vertex `json:"parents,omitempty"`
	Labels    []havoqgt.Vertex `json:"labels,omitempty"`
	InCore    []bool           `json:"in_core,omitempty"`
	Ranks     []uint64         `json:"ranks,omitempty"`
}

// Machine-readable error codes: every 4xx/5xx body carries one, so load
// clients can distinguish shed (back off and retry) from failed (don't).
const (
	codeBadRequest       = "bad_request"    // malformed body or invalid parameters
	codeBodyTooLarge     = "body_too_large" // request body over maxQueryBody
	codeMethodNotAllowed = "method_not_allowed"
	codeQuotaExceeded    = "quota_exceeded"    // tenant over its token bucket: retryable
	codeEngineOverloaded = "engine_overloaded" // engine admission queue full: retryable
	codeTimeout          = "timeout"           // deadline exhausted (after server-side retries): retryable
	codeClusterDegraded  = "cluster_degraded"  // a cluster worker is dead or healing: retryable
	codeInternal         = "internal"
)

// errorResponse is the structured JSON body of every 4xx/5xx response.
type errorResponse struct {
	// Code is the machine-readable error class (the code* constants).
	Code string `json:"code"`
	// Reason is the human-readable detail.
	Reason string `json:"reason"`
	// RetryAfterSec, when nonzero, is the suggested client back-off in
	// seconds; it mirrors the Retry-After header and marks the error
	// retryable (shed, not failed).
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Error keeps errorResponse printable in tests and logs.
func (e errorResponse) Error() string { return e.Code + ": " + e.Reason }

// maxQueryBody caps the POST /query request body; the body is one small JSON
// object, so anything past this is a broken or abusive client.
const maxQueryBody = 1 << 20

// tenantHeader identifies the requesting tenant for quota accounting; the
// value is the tenant's API key. Authorization: Bearer <key> works too, and
// requests carrying neither share the "anonymous" bucket.
const tenantHeader = "X-Api-Key"

// anonTenant is the shared bucket for unidentified requests.
const anonTenant = "anonymous"

// frontEnd is POST /query for both modes: decode, tenant quota, validation,
// then the traffic plane's cache and collapsing around the mode's ladder.
type frontEnd struct {
	// plane is the front-door admission layer: tenant quotas, result cache,
	// hot-query collapsing.
	plane *traffic.Plane
	n     uint64 // vertices: the bound a source is validated against
	// version is the graph's snapshot version, keyed into the cache and
	// reported as X-Graph-Version. nil for the cluster, whose graph never
	// changes — a heal rebuilds the identical deterministic partitions — so
	// its answers key at version 1 and stay cached across worker deaths.
	version func() uint64
	// exec is the mode's ladder: one validated, canonical query to its 200 body.
	exec func(ctx context.Context, spec engine.Spec, full bool) ([]byte, error)
	// retries bounds the ladder's retries per execution (-query-retries).
	retries int
	// addr is the resolved listen address ("-addr :0" binds an ephemeral
	// port; this is where it actually landed).
	addr                          string
	served, failed, shed, retried atomic.Uint64
	started                       time.Time
}

// close releases the traffic plane's background resources (quota refill
// ticker). Call after the HTTP server has stopped.
func (f *frontEnd) close() { f.plane.Close() }

// health is the /healthz fields both modes report.
func (f *frontEnd) health() map[string]any {
	return map[string]any{
		"addr":      f.addr,
		"uptime_ms": time.Since(f.started).Milliseconds(),
		"served":    f.served.Load(),
		"failed":    f.failed.Load(),
		"shed":      f.shed.Load(),
		"retried":   f.retried.Load(),
	}
}

// maxDeadlineMS is the largest deadline_ms a time.Duration holds.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// spec is the engine query the /query body asks for on an n-vertex graph,
// validated and canonical, or the reason it is a bad request.
func (req *queryRequest) spec(n uint64) (engine.Spec, error) {
	if req.DeadlineMS < 0 || req.DeadlineMS > maxDeadlineMS {
		return engine.Spec{}, fmt.Errorf("deadline_ms %d out of range [0, %d]", req.DeadlineMS, maxDeadlineMS)
	}
	spec := engine.Spec{
		Algo:       engine.Algo(req.Algo),
		Source:     graph.Vertex(req.Source),
		WeightSeed: req.WeightSeed,
		K:          req.K,
		Iters:      req.Iters,
		Deadline:   time.Duration(req.DeadlineMS) * time.Millisecond,
	}
	if err := engine.Validate(spec, n); err != nil {
		return engine.Spec{}, err
	}
	return engine.Canonical(spec), nil
}

// collapseKey is the identity under which equivalent requests collapse and
// results cache: the canonical spec, whether the answer is full, and the
// graph version so a snapshot swap invalidates by key mismatch.
func collapseKey(spec engine.Spec, req *queryRequest, version uint64) traffic.Key {
	return traffic.Key{Spec: spec, Full: req.Full, Version: version}
}

func (f *frontEnd) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only", 0)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		f.failed.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Sprintf("request body over %d bytes", tooBig.Limit), 0)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error(), 0)
		return
	}

	// Front door, step 1: tenant quota. One atomic decrement on the
	// tenant's token bucket; a shed costs no engine work at all.
	if err := f.plane.Admit(tenantID(r)); err != nil {
		f.shed.Add(1)
		retryAfter := 1
		var qe *traffic.ErrQuotaExceeded
		if errors.As(err, &qe) {
			if sec := int(qe.RetryAfter / time.Second); sec > retryAfter {
				retryAfter = sec
			}
		}
		writeError(w, http.StatusTooManyRequests, codeQuotaExceeded, err.Error(), retryAfter)
		return
	}

	spec, err := req.spec(f.n)
	if err != nil {
		f.failed.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error(), 0)
		return
	}

	// Steps 2+3: result cache, then hot-query collapsing. The execution
	// runs detached — this handler's disconnect only cancels it if no
	// other client is collapsed onto it.
	version := uint64(1)
	if f.version != nil {
		version = f.version()
	}
	start := time.Now()
	body, outcome, err := f.plane.Do(r.Context(), collapseKey(spec, &req, version), func(ctx context.Context) ([]byte, error) {
		return f.exec(ctx, spec, req.Full)
	})
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// This client is gone; nothing useful can be written.
			f.failed.Add(1)
		case errors.Is(err, cluster.ErrClusterDegraded), errors.Is(err, cluster.ErrWorkerLost):
			// Self-healing in progress and the retry budget ran out: shed
			// with the structured schema so clients back off and retry once
			// the cluster is whole.
			f.shed.Add(1)
			writeError(w, http.StatusServiceUnavailable, codeClusterDegraded, err.Error(), 5)
		case errors.Is(err, havoqgt.ErrQueryRejected):
			// Backpressure: the engine's wait queue is full.
			f.failed.Add(1)
			writeError(w, http.StatusTooManyRequests, codeEngineOverloaded, err.Error(), 1)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Deadline exhaustion (even after retries) or all waiters gone.
			f.failed.Add(1)
			writeError(w, http.StatusGatewayTimeout, codeTimeout,
				"query cancelled (deadline or client disconnect)", 1)
		default:
			f.failed.Add(1)
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error(), 0)
		}
		return
	}

	f.served.Add(1)
	f.plane.ObserveLatency(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Traffic-Outcome", outcome.String())
	if f.version != nil {
		w.Header().Set("X-Graph-Version", strconv.FormatUint(version, 10))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// attempt is one submitted execution of a query: an *engine.Ticket in the
// single process, a *cluster.Query on the coordinator.
type attempt interface {
	ID() uint32
	WaitCtx(ctx context.Context) (*engine.Result, error)
}

// ladder is the recovery ladder, havoqd's one retry loop and both modes'
// exec. The mode supplies submit, which starts an attempt, and retry, its
// retryable set: whether err, from submit (a is then nil) or from a's wait,
// is one it retries, and if so the next attempt's spec. Attempts wait under
// ctx, the collapse group's context, which ends once every client waiting
// on this execution has gone: the attempt is then cancelled and drained,
// and nothing is retried.
func ladder[A attempt](f *frontEnd, submit func(engine.Spec) (A, error),
	retry func(spec engine.Spec, a A, err error) (engine.Spec, bool)) func(context.Context, engine.Spec, bool) ([]byte, error) {
	return func(ctx context.Context, spec engine.Spec, full bool) ([]byte, error) {
		start := time.Now()
		for retries := f.retries; ; retries-- {
			a, err := submit(spec)
			if err == nil {
				var res *engine.Result
				if res, err = a.WaitCtx(ctx); err == nil {
					return respond(spec, full, a.ID(), start, res)
				}
			}
			if retries <= 0 || ctx.Err() != nil {
				return nil, err
			}
			next, ok := retry(spec, a, err)
			if !ok {
				return nil, err
			}
			f.retried.Add(1)
			spec = next
		}
	}
}

// respond shapes a finished query as the 200 body, the same in both modes:
// the scalar summary always, the per-vertex arrays with "full". A cluster's
// result carries no parents, so neither does its full answer.
func respond(spec engine.Spec, full bool, id uint32, start time.Time, res *engine.Result) ([]byte, error) {
	resp := queryResponse{
		ID: id, Algo: string(spec.Algo), ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3,
		Components: res.Components, CoreSize: res.CoreSize, Triangles: res.Triangles,
		Iters: spec.Iters, // canonical: pagerank's effective count, 0 for the rest
	}
	if res.Levels != nil {
		resp.Reached, resp.MaxLevel = bfs.Summary(res.Levels)
	}
	if res.Dist != nil {
		resp.Reached, resp.MaxDist = sssp.Summary(res.Dist)
	}
	if full {
		resp.Levels, resp.Distances, resp.Parents = res.Levels, res.Dist, res.Parents
		resp.Labels, resp.InCore, resp.Ranks = res.Labels, res.InCore, res.Ranks
	}
	return json.Marshal(resp)
}

// newHTTPServer serves h under the limits both modes share: a stalled or
// malicious client must not pin a connection (and its handler goroutine)
// forever. WriteTimeout bounds the whole handler, so it must cover the
// slowest legitimate query including the server-side retry budget; 5
// minutes is far past any deadline the degradation path grants.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the structured error body shared by every 4xx/5xx path.
// retryAfterSec > 0 also sets the Retry-After header.
func writeError(w http.ResponseWriter, status int, code, reason string, retryAfterSec int) {
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	writeJSON(w, status, errorResponse{Code: code, Reason: reason, RetryAfterSec: retryAfterSec})
}

// tenantID resolves the requesting tenant from the API-key header (or an
// Authorization bearer token), falling back to the shared anonymous bucket.
func tenantID(r *http.Request) string {
	if k := r.Header.Get(tenantHeader); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok && tok != "" {
			return tok
		}
	}
	return anonTenant
}

// server is the single-process mode: the front end over one resident graph
// and its multi-query engine.
type server struct {
	frontEnd
	g *havoqgt.Graph
	e *havoqgt.Engine
}

// newServer assembles the single-process mode as o's flags ask. The traffic
// plane registers its metrics in the engine's registry, so /stats carries
// traffic.* next to engine.* and mailbox.*.
func newServer(g *havoqgt.Graph, e *havoqgt.Engine, o *options) *server {
	tc := o.traffic
	tc.Registry = e.Metrics()
	s := &server{g: g, e: e, frontEnd: frontEnd{
		plane: traffic.New(tc), n: g.NumVertices(), version: g.Version, retries: o.queryRetries, started: time.Now(),
	}}
	s.exec = ladder(&s.frontEnd, e.Submit, s.retry)
	return s
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	h["ok"] = true
	h["vertices"] = s.g.NumVertices()
	h["edges"] = s.g.NumEdges()
	h["ranks"] = s.g.Ranks()
	h["graph_version"] = s.g.Version()
	writeJSON(w, http.StatusOK, h)
}

// handleStats serves the machine's full observability snapshot (transport,
// mailbox, termination, visitor-queue, engine, and traffic counters) as
// JSON. The snapshot is taken first — one point-in-time, per-cell-atomic
// copy of the registry — and then marshaled to a buffer, so a slow client
// or an encoding failure can never ship a half-written document or a 200
// status glued to a truncated body.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.e.Metrics().Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// retry is the single process's retryable set: a deadline-expired attempt,
// resumed from its checkpoint with a doubled deadline (Query.Resume(0)'s rule).
func (s *server) retry(spec engine.Spec, t *engine.Ticket, err error) (engine.Spec, bool) {
	if !errors.Is(err, context.DeadlineExceeded) {
		return spec, false
	}
	return t.RetrySpec(0), true
}
