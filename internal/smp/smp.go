// Package smp implements the single-node multithreaded asynchronous visitor
// framework of the authors' earlier work (§IV-A, reference [4]): BFS, SSSP,
// and connected components over a shared CSR using per-thread prioritized
// visitor queues. This is how the paper's Table II "Leviathan" entry
// traverses a trillion-edge graph on one 40-core host backed by Fusion-io
// flash.
//
// Threads own disjoint vertex sets (vertex v belongs to thread v mod T),
// giving visitors exclusive access to vertex state without atomics on the
// data itself. Cross-thread visitors travel through per-thread inboxes;
// termination uses a shared pending-task counter.
//
// The CSR's target store may be a page-cache-backed NVRAM store (one view
// per thread, see csr.Matrix.WithTargets); many threads faulting
// concurrently is exactly the high-concurrency I/O pattern the paper
// identifies as necessary to extract performance from NAND Flash.
package smp

import (
	"runtime"

	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
)

// Unreached is the level of vertices not reached by a traversal.
const Unreached = ^uint32(0)

// UnreachedDist is the distance of vertices not reached by SSSP.
const UnreachedDist = ^uint64(0)

// views validates and materializes per-thread matrix views for an in-memory
// matrix (shared safely) and checks coverage.
func memViews(m *csr.Matrix, n uint64, threads int) []*csr.Matrix {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if _, ok := m.Targets().(csr.MemTargets); !ok {
		panic("smp: in-memory entry point requires MemTargets; use the WithViews variant for external stores")
	}
	if uint64(m.NumRows()) != n {
		panic("smp: CSR must cover every vertex")
	}
	vs := make([]*csr.Matrix, threads)
	for i := range vs {
		vs[i] = m // MemTargets reads are pure slicing: safe to share
	}
	return vs
}

func checkViews(vs []*csr.Matrix, n uint64) {
	if len(vs) == 0 {
		panic("smp: need at least one view")
	}
	if uint64(vs[0].NumRows()) != n {
		panic("smp: CSR must cover every vertex")
	}
}

// --- BFS ---

// bfsVisitor carries a candidate level.
type bfsVisitor struct {
	v      graph.Vertex
	length uint32
	parent graph.Vertex
}

// BFSResult holds the traversal output and counters.
type BFSResult struct {
	Level  []uint32
	Parent []graph.Vertex

	VisitorsExecuted uint64
}

type bfsAlgo struct {
	views []*csr.Matrix
	res   *BFSResult
}

func (a *bfsAlgo) Owner(v bfsVisitor, threads int) int { return int(v.v) % threads }

func (a *bfsAlgo) PreVisit(t int, v bfsVisitor) bool {
	if v.length < a.res.Level[v.v] {
		a.res.Level[v.v] = v.length
		a.res.Parent[v.v] = v.parent
		return true
	}
	return false
}

func (a *bfsAlgo) Visit(t int, v bfsVisitor, emit func(bfsVisitor)) {
	if v.length != a.res.Level[v.v] {
		return
	}
	next := v.length + 1
	for _, e := range a.views[t].Row(int(v.v)) {
		tgt := e.Vertex()
		emit(bfsVisitor{v: tgt, length: next, parent: v.v})
	}
}

func (a *bfsAlgo) Priority(v bfsVisitor) int { return int(v.length) }

// BFS runs a multithreaded asynchronous BFS from source over an in-memory
// CSR covering all n vertices (row i = vertex i, both directions stored).
// threads <= 0 selects GOMAXPROCS.
func BFS(m *csr.Matrix, n uint64, source graph.Vertex, threads int) *BFSResult {
	return BFSWithViews(memViews(m, n, threads), n, source)
}

// BFSWithViews runs the BFS with one matrix view per thread (external
// stores: extmem.Store.View over one shared page cache).
func BFSWithViews(views []*csr.Matrix, n uint64, source graph.Vertex) *BFSResult {
	checkViews(views, n)
	if uint64(source) >= n {
		panic("smp: source out of range")
	}
	res := &BFSResult{Level: make([]uint32, n), Parent: make([]graph.Vertex, n)}
	for i := range res.Level {
		res.Level[i] = Unreached
		res.Parent[i] = graph.Nil
	}
	algo := &bfsAlgo{views: views, res: res}
	res.VisitorsExecuted = run(len(views), []bfsVisitor{{v: source, length: 0, parent: source}}, algo)
	return res
}

// --- SSSP ---

// ssspVisitor carries a tentative distance.
type ssspVisitor struct {
	v      graph.Vertex
	dist   uint64
	parent graph.Vertex
}

// SSSPResult holds distances and parents.
type SSSPResult struct {
	Dist   []uint64
	Parent []graph.Vertex

	VisitorsExecuted uint64
}

type ssspAlgo struct {
	views  []*csr.Matrix
	res    *SSSPResult
	weight func(u, v graph.Vertex) uint64
}

func (a *ssspAlgo) Owner(v ssspVisitor, threads int) int { return int(v.v) % threads }

func (a *ssspAlgo) PreVisit(t int, v ssspVisitor) bool {
	if v.dist < a.res.Dist[v.v] {
		a.res.Dist[v.v] = v.dist
		a.res.Parent[v.v] = v.parent
		return true
	}
	return false
}

func (a *ssspAlgo) Visit(t int, v ssspVisitor, emit func(ssspVisitor)) {
	if v.dist != a.res.Dist[v.v] {
		return
	}
	for _, e := range a.views[t].Row(int(v.v)) {
		tgt := e.Vertex()
		emit(ssspVisitor{v: tgt, dist: v.dist + a.weight(v.v, tgt), parent: v.v})
	}
}

// Priority buckets distances coarsely (delta-stepping style) so the local
// queues stay shallow without unbounded bucket arrays.
func (a *ssspAlgo) Priority(v ssspVisitor) int { return int(v.dist >> 6) }

// SSSP runs multithreaded single-source shortest paths with the given
// symmetric weight function over an in-memory CSR.
func SSSP(m *csr.Matrix, n uint64, source graph.Vertex, threads int, weight func(u, v graph.Vertex) uint64) *SSSPResult {
	return SSSPWithViews(memViews(m, n, threads), n, source, weight)
}

// SSSPWithViews is SSSP with one matrix view per thread.
func SSSPWithViews(views []*csr.Matrix, n uint64, source graph.Vertex, weight func(u, v graph.Vertex) uint64) *SSSPResult {
	checkViews(views, n)
	if uint64(source) >= n {
		panic("smp: source out of range")
	}
	res := &SSSPResult{Dist: make([]uint64, n), Parent: make([]graph.Vertex, n)}
	for i := range res.Dist {
		res.Dist[i] = UnreachedDist
		res.Parent[i] = graph.Nil
	}
	algo := &ssspAlgo{views: views, res: res, weight: weight}
	res.VisitorsExecuted = run(len(views), []ssspVisitor{{v: source, dist: 0, parent: source}}, algo)
	return res
}

// --- Connected components ---

// ccVisitor carries a candidate component label.
type ccVisitor struct {
	v     graph.Vertex
	label graph.Vertex
}

// CCResult holds per-vertex component labels (smallest vertex id in the
// component).
type CCResult struct {
	Label []graph.Vertex

	VisitorsExecuted uint64
}

// NumComponents counts component representatives.
func (r *CCResult) NumComponents() uint64 {
	var n uint64
	for v, l := range r.Label {
		if l == graph.Vertex(v) {
			n++
		}
	}
	return n
}

type ccAlgo struct {
	views []*csr.Matrix
	res   *CCResult
}

func (a *ccAlgo) Owner(v ccVisitor, threads int) int { return int(v.v) % threads }

func (a *ccAlgo) PreVisit(t int, v ccVisitor) bool {
	if v.label < a.res.Label[v.v] {
		a.res.Label[v.v] = v.label
		return true
	}
	return false
}

func (a *ccAlgo) Visit(t int, v ccVisitor, emit func(ccVisitor)) {
	if v.label != a.res.Label[v.v] {
		return
	}
	for _, e := range a.views[t].Row(int(v.v)) {
		tgt := e.Vertex()
		emit(ccVisitor{v: tgt, label: v.label})
	}
}

func (a *ccAlgo) Priority(v ccVisitor) int { return 0 }

// CC runs multithreaded connected components over an in-memory CSR.
func CC(m *csr.Matrix, n uint64, threads int) *CCResult {
	return CCWithViews(memViews(m, n, threads), n)
}

// CCWithViews is CC with one matrix view per thread.
func CCWithViews(views []*csr.Matrix, n uint64) *CCResult {
	checkViews(views, n)
	res := &CCResult{Label: make([]graph.Vertex, n)}
	seeds := make([]ccVisitor, n)
	for v := uint64(0); v < n; v++ {
		res.Label[v] = graph.Nil
		seeds[v] = ccVisitor{v: graph.Vertex(v), label: graph.Vertex(v)}
	}
	algo := &ccAlgo{views: views, res: res}
	res.VisitorsExecuted = run(len(views), seeds, algo)
	return res
}
