package havoqgt

// Facade over the execution engine (internal/engine): keep the partitioned
// graph resident and serve many concurrent traversals over the shared message
// plane, instead of one transient engine per call.
//
//	g, _ := havoqgt.GenerateRMAT(16, 42, havoqgt.Options{Ranks: 8})
//	e, _ := g.StartEngine(havoqgt.EngineOptions{MaxInFlight: 8})
//	defer e.Close()
//	q1, _ := e.SubmitBFS(0)
//	q2, _ := e.SubmitQuery(havoqgt.QuerySpec{Algo: "sssp", Source: 17, WeightSeed: 1})
//	bfsRes, _ := q1.Wait() // both traversals interleaved one message plane
//
// While an engine is attached, every Graph query method routes through it
// automatically, so existing callers become concurrent without code changes.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/obs"
)

// ErrQueryRejected is returned by Submit* when the engine's wait queue is
// full — the backpressure signal to retry later or shed load.
var ErrQueryRejected = engine.ErrRejected

// EngineOptions tune the multi-query engine.
type EngineOptions struct {
	// MaxInFlight bounds concurrently executing traversals (default 8).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an in-flight slot (default 64);
	// submissions beyond it fail with ErrQueryRejected.
	MaxQueue int
	// DefaultDeadline, if nonzero, cancels any query still running after
	// this long (per-query deadlines can be set on submission instead).
	DefaultDeadline time.Duration
	// Reliable runs the engine's shared mailbox with acked, retransmitted
	// delivery, tolerating message drop/duplication/corruption on the data
	// plane (see internal/faults for the fault model it defends against).
	Reliable bool
}

// Engine serves concurrent queries over one resident Graph. Create with
// Graph.StartEngine; all methods are safe for concurrent use.
type Engine struct {
	g *Graph
	e *engine.Engine
	d time.Duration // default deadline
}

// engineConfig binds an engine to the graph's machine. In out-of-core mode
// each rank's pager goes along, so rank loops park visits on absent adjacency
// pages instead of blocking on the device. Caller holds g.mu.
func (g *Graph) engineConfig() engine.Config {
	return engine.Config{
		Machine:  g.machine,
		Parts:    g.parts,
		Ghosts:   g.ghosts,
		Topology: g.opts.Topology,
		Pagers:   engine.RowPagers(g.stores.Pagers()),
	}
}

// StartEngine attaches a multi-query engine to the graph. While attached,
// the engine owns the simulated machine and every Graph query method routes
// through it, until Close.
func (g *Graph) StartEngine(opts EngineOptions) (*Engine, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.eng != nil {
		return nil, errors.New("havoqgt: an engine is already attached to this graph")
	}
	e, err := engine.Start(g.engineConfig(), engine.Options{
		MaxInFlight: opts.MaxInFlight,
		MaxQueue:    opts.MaxQueue,
		Core:        core.Config{Reliable: opts.Reliable},
	})
	if err != nil {
		return nil, err
	}
	g.eng = &Engine{g: g, e: e, d: opts.DefaultDeadline}
	return g.eng, nil
}

// Close drains every outstanding query, stops the engine, and returns the
// graph to one-shot (one transient engine per call) use.
func (e *Engine) Close() error {
	err := e.e.Close()
	e.g.mu.Lock()
	if e.g.eng == e {
		e.g.eng = nil
	}
	e.g.mu.Unlock()
	return err
}

// Metrics returns the machine's observability registry, so serving layers
// (admission planes, stats endpoints, load harnesses) can register and read
// metrics in the same namespace as the engine and message plane.
func (e *Engine) Metrics() *obs.Registry { return e.e.Obs() }

// Query is a handle on one submitted query.
type Query struct {
	e    *Engine
	t    *engine.Ticket
	spec engine.Spec
}

// ID returns the query's engine-assigned identifier.
func (q *Query) ID() uint32 { return q.t.ID() }

// Done is closed when the query completes (successfully or cancelled).
func (q *Query) Done() <-chan struct{} { return q.t.Done() }

// Cancel stops the query; its in-flight visitors drain without being
// applied. Cancelling a completed query is a no-op.
func (q *Query) Cancel() { q.t.Cancel() }

// ErrQueryCancelled is returned by Wait for a query that was cancelled
// (explicitly or by deadline) before completing.
var ErrQueryCancelled = errors.New("havoqgt: query cancelled")

// ErrQueryTimeout is the retryable subset of ErrQueryCancelled: the query was
// cancelled by its deadline, not by the caller, so resubmitting (ideally via
// Resume, which keeps the partial progress) can still succeed. It wraps
// ErrQueryCancelled, so existing errors.Is(err, ErrQueryCancelled) checks
// keep matching.
var ErrQueryTimeout = fmt.Errorf("%w: deadline exceeded (retryable)", ErrQueryCancelled)

// Wait blocks until the query completes and returns its result, or
// ErrQueryCancelled (ErrQueryTimeout when the deadline cancelled it).
func (q *Query) Wait() (*QueryResult, error) {
	res := q.t.Wait()
	if res.Cancelled {
		if errors.Is(q.t.Err(), context.DeadlineExceeded) {
			return nil, ErrQueryTimeout
		}
		return nil, ErrQueryCancelled
	}
	return convert(q.spec, res), nil
}

// Resume resubmits a finished, cancelled query as a new attempt made by the
// engine's retry rule (engine.Ticket.RetrySpec): resumed from the checkpoint
// where the algorithm allows, with deadline d, or twice the previous
// attempt's when d is zero. Resuming a running or completed query fails.
func (q *Query) Resume(d time.Duration) (*Query, error) {
	select {
	case <-q.t.Done():
	default:
		return nil, errors.New("havoqgt: query still running; nothing to resume")
	}
	if q.t.Err() == nil {
		return nil, errors.New("havoqgt: query completed; nothing to resume")
	}
	return q.e.submit(q.t.RetrySpec(d))
}

// QueryResult is one completed query's output; exactly one algorithm field
// is non-nil.
type QueryResult struct {
	BFS        *BFSResult
	SSSP       *SSSPResult
	Components *ComponentsResult
	KCore      *KCoreResult
	PageRank   *PageRankResult
	Triangles  *TrianglesResult
}

// convert shapes an engine result as the spec's algorithm's facade result.
func convert(spec engine.Spec, res *engine.Result) *QueryResult {
	switch spec.Algo {
	case engine.AlgoBFS, engine.AlgoBFSDO:
		out := &BFSResult{Source: spec.Source, Levels: res.Levels, Parents: res.Parents}
		out.Reached, out.MaxLevel = bfs.Summary(res.Levels)
		return &QueryResult{BFS: out}
	case engine.AlgoSSSP:
		return &QueryResult{SSSP: &SSSPResult{Source: spec.Source, Distances: res.Dist, Parents: res.Parents}}
	case engine.AlgoCC:
		return &QueryResult{Components: &ComponentsResult{Labels: res.Labels, Count: res.Components}}
	case engine.AlgoKCore:
		return &QueryResult{KCore: &KCoreResult{K: spec.K, InCore: res.InCore, CoreSize: res.CoreSize}}
	case engine.AlgoPageRank:
		iters := spec.Iters
		if iters == 0 {
			iters = DefaultPageRankIters
		}
		return &QueryResult{PageRank: &PageRankResult{Iters: iters, Ranks: res.Ranks}}
	case engine.AlgoTriangles:
		return &QueryResult{Triangles: &TrianglesResult{Count: res.Triangles}}
	}
	panic("havoqgt: unknown algorithm past engine validation")
}

// Submit starts spec and returns the engine's own ticket and result shape,
// for serving layers in this module (cmd/havoqd). The engine's default
// deadline applies when spec sets none.
func (e *Engine) Submit(spec engine.Spec) (*engine.Ticket, error) {
	if spec.Deadline == 0 {
		spec.Deadline = e.d
	}
	return e.e.Submit(spec)
}

// submit is Submit behind the facade's per-algorithm Query handle.
func (e *Engine) submit(spec engine.Spec) (*Query, error) {
	t, err := e.Submit(spec)
	if err != nil {
		return nil, err
	}
	return &Query{e: e, t: t, spec: spec}, nil
}

// SubmitBFS starts an asynchronous BFS query from source; SubmitQuery starts
// any other.
func (e *Engine) SubmitBFS(source Vertex) (*Query, error) {
	return e.submit(engine.Spec{Algo: engine.AlgoBFS, Source: source})
}

// QuerySpec names a query generically, for serving layers that receive the
// algorithm as a string. Fields irrelevant to the algorithm are ignored.
type QuerySpec struct {
	Algo       string
	Source     Vertex
	WeightSeed uint64
	K          uint32
	Iters      uint32
	Deadline   time.Duration
}

func (qs QuerySpec) spec() engine.Spec {
	return engine.Spec{
		Algo: engine.Algo(qs.Algo), Source: qs.Source, WeightSeed: qs.WeightSeed,
		K: qs.K, Iters: qs.Iters, Deadline: qs.Deadline,
	}
}

// SubmitQuery starts the query described by a generic spec.
func (e *Engine) SubmitQuery(qs QuerySpec) (*Query, error) { return e.submit(qs.spec()) }
