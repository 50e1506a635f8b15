package engine

// The query-type table. A query type is one entry: the Spec fields it reads
// and the checks they must pass, the Result arrays it fills and what they
// hold before any rank gathered into them, its runner constructor, whether
// it resumes, and the Result scalar its ranks' accum totals into. Validate,
// NewResult, Canonical, Part and Merge read the table; the
// cluster, the traffic plane and havoqd reach it only through them, and carry
// a query as its Spec and its answer as Results cut by Part. Submit resolves a
// query's entry once and carries it on the query, so rank loops never read
// the table. What a query type still needs outside it: its facade method and
// result struct, and its internal/ref oracle with its differential case.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

// algo is one query type's table entry.
type algo struct {
	name Algo
	// params returns the Spec fields the query type reads, defaults
	// resolved, every other field zero; nil reads none.
	params func(Spec) Spec
	// check rejects parameters the query type cannot run with on an
	// n-vertex graph; nil accepts every value.
	check func(spec Spec, n uint64) error
	// arrays are the per-vertex Result arrays the ranks gather into.
	arrays []array
	// run builds the query's runner on one rank (runners.go).
	run func(*runEnv) runner
	// resumes is the checkpoint/resume capability: true when the query
	// type's per-vertex state is monotone (levels, distances and labels only
	// ever improve toward the fixpoint), so a cancelled query's partial
	// gather is a consistent lower bound a resumed run can re-seed from. The
	// others fail the test for structural reasons, not as special cases:
	// k-core's interlocked removal counts would double-remove edges on
	// replay; PageRank's ranks move both ways between iterations; the
	// direction-optimizing BFS and triangle counting hold mid-protocol
	// wavefront state (frontier bitmaps, partial wedges) that a fresh engine
	// cannot re-enter. Everything that gates on resumability — Spec.Resume
	// validation, Ticket.Checkpoint, Ticket.RetrySpec — reads this one flag.
	resumes bool
	// total, when non-nil, is the Result scalar the ranks' accum totals into.
	total func(*Result) *uint64
}

// algos is the table, in the order Algos lists it.
var algos = []*algo{
	{name: AlgoBFS, params: source, check: sourceInRange, arrays: []array{levels, parents},
		run: newBFSRunner, resumes: true},
	{name: AlgoBFSDO, params: source, check: sourceInRange, arrays: []array{levels, parents},
		run: newDOBFSRunner},
	{name: AlgoSSSP, params: func(s Spec) Spec { return Spec{Source: s.Source, WeightSeed: s.WeightSeed} },
		check: sourceInRange, arrays: []array{dist, parents}, run: newSSSPRunner, resumes: true},
	{name: AlgoCC, arrays: []array{labels}, run: newCCRunner, resumes: true,
		total: func(r *Result) *uint64 { return &r.Components }},
	{name: AlgoKCore, params: func(s Spec) Spec { return Spec{K: s.K} },
		check: func(s Spec, _ uint64) error {
			if s.K < 1 {
				return errors.New("engine: kcore needs k >= 1")
			}
			return nil
		},
		arrays: []array{inCore}, run: newKCoreRunner, total: func(r *Result) *uint64 { return &r.CoreSize }},
	{name: AlgoTriangles, params: func(s Spec) Spec { return Spec{SampleProb: s.SampleProb, SampleSeed: s.SampleSeed} },
		check: func(s Spec, _ uint64) error {
			if p := s.SampleProb; p != 0 && !(p > 0 && p < 1) {
				return fmt.Errorf("engine: triangles sample probability %v not in (0, 1)", p)
			}
			return nil
		},
		run: newTriangleRunner, total: func(r *Result) *uint64 { return &r.Triangles }},
	{name: AlgoPageRank, params: func(s Spec) Spec { return Spec{Iters: cmp.Or(s.Iters, pagerank.DefaultIters)} },
		check: func(s Spec, _ uint64) error {
			if s.Iters > pagerank.MaxIters {
				return fmt.Errorf("engine: pagerank iters %d exceeds max %d", s.Iters, pagerank.MaxIters)
			}
			return nil
		},
		arrays: []array{ranks}, run: newPageRankRunner},
}

func source(s Spec) Spec { return Spec{Source: s.Source} }

func sourceInRange(s Spec, n uint64) error {
	if uint64(s.Source) >= n {
		return fmt.Errorf("engine: source %d out of range [0, %d)", s.Source, n)
	}
	return nil
}

// array is one per-vertex Result array.
type array struct {
	name string
	// ordered marks an array whose entries depend on the order visits
	// arrived in (parents: a vertex reached along several equal paths keeps
	// whichever came first), so two correct runs may differ in it. Part
	// leaves it out.
	ordered bool
	// alloc sets the array to n entries of its "nothing known" value rather
	// than zero. A completed query overwrites every entry through the
	// per-rank gathers, but a query cancelled before it ever started skips
	// them, and its result must still be a valid (empty) checkpoint, not an
	// array of spurious level-0 vertices.
	alloc func(res *Result, n uint64)
	size  func(res *Result) int
	// cut sets dst's array to entries [lo, hi) of src's; put copies part's
	// array into dst's from entry lo.
	cut func(dst, src *Result, lo, hi uint64)
	put func(dst, part *Result, lo uint64)
}

// filled is the array field returns, its n entries set by fill; nil fill
// leaves the zero value.
func filled[T any](name string, ordered bool, field func(*Result) *[]T, fill func([]T)) array {
	return array{
		name:    name,
		ordered: ordered,
		alloc: func(res *Result, n uint64) {
			a := make([]T, n)
			if fill != nil && n > 0 {
				fill(a)
			}
			*field(res) = a
		},
		size: func(res *Result) int { return len(*field(res)) },
		cut:  func(dst, src *Result, lo, hi uint64) { *field(dst) = (*field(src))[lo:hi] },
		put:  func(dst, part *Result, lo uint64) { copy((*field(dst))[lo:], *field(part)) },
	}
}

// fillWith fills with x.
func fillWith[T any](x T) func([]T) {
	return func(a []T) {
		for i := range a {
			a[i] = x
		}
	}
}

var (
	levels  = filled("levels", false, func(r *Result) *[]uint32 { return &r.Levels }, fillWith(bfs.Unreached))
	dist    = filled("dist", false, func(r *Result) *[]uint64 { return &r.Dist }, fillWith(sssp.Unreached))
	parents = filled("parents", true, func(r *Result) *[]graph.Vertex { return &r.Parents }, nil)
	inCore  = filled("inCore", false, func(r *Result) *[]bool { return &r.InCore }, nil)
	// Iteration 0, uniform 1/n: what a query cancelled before any iteration
	// would mean.
	ranks = filled("ranks", false, func(r *Result) *[]uint64 { return &r.Ranks },
		func(a []uint64) { fillWith(ref.PRScale / uint64(len(a)))(a) })
	// Every vertex its own component.
	labels = filled("labels", false, func(r *Result) *[]graph.Vertex { return &r.Labels },
		func(a []graph.Vertex) {
			for v := range a {
				a[v] = graph.Vertex(v)
			}
		})
	// allArrays is every per-vertex Result array: Merge refuses those a
	// query type does not ship.
	allArrays = []array{levels, dist, parents, labels, inCore, ranks}
)

// lookup returns a's entry, or nil for a type the table does not hold.
func lookup(a Algo) *algo {
	for _, e := range algos {
		if e.name == a {
			return e
		}
	}
	return nil
}

// Algos lists every query type, in table order.
func Algos() []Algo {
	out := make([]Algo, len(algos))
	for i, e := range algos {
		out[i] = e.name
	}
	return out
}

// key is the part of spec the entry reads.
func (e *algo) key(spec Spec) Spec {
	if e.params == nil {
		return Spec{}
	}
	return e.params(spec)
}

// Canonical returns spec with every field its query type does not read
// zeroed and the defaults of those it does resolved (PageRank's Iters 0 is
// pagerank.DefaultIters), so two specs asking the same question are equal.
// Deadline and Resume are kept. A spec of an unknown type comes back as is.
func Canonical(spec Spec) Spec {
	e := lookup(spec.Algo)
	if e == nil {
		return spec
	}
	c := e.key(spec)
	c.Algo, c.Deadline, c.Resume = spec.Algo, spec.Deadline, spec.Resume
	return c
}

// Validate rejects a spec no engine over an n-vertex graph can run: an
// unknown query type, a negative deadline, parameters its entry's checks
// refuse, or a Resume checkpoint from another query, another graph, or a type
// that does not resume (ErrNotResumable).
func Validate(spec Spec, n uint64) error {
	_, err := resolve(spec, n)
	return err
}

// resolve is Validate, also returning the spec's entry.
func resolve(spec Spec, n uint64) (*algo, error) {
	e := lookup(spec.Algo)
	if e == nil {
		names := make([]string, len(algos))
		for i, a := range algos {
			names[i] = string(a.name)
		}
		return nil, fmt.Errorf("engine: unknown algorithm %q (want %s)", spec.Algo, strings.Join(names, "|"))
	}
	if spec.Deadline < 0 {
		return nil, fmt.Errorf("engine: negative deadline %v", spec.Deadline)
	}
	if e.check != nil {
		if err := e.check(spec, n); err != nil {
			return nil, err
		}
	}
	cp := spec.Resume
	if cp == nil {
		return e, nil
	}
	if !e.resumes {
		return nil, fmt.Errorf("%w: %s", ErrNotResumable, spec.Algo)
	}
	if cp.Res == nil {
		return nil, errors.New("engine: resume checkpoint has no result state")
	}
	if cp.Spec.Algo != spec.Algo || e.key(cp.Spec) != e.key(spec) {
		return nil, errors.New("engine: resume checkpoint is from an incompatible query")
	}
	for _, a := range e.arrays {
		if uint64(a.size(cp.Res)) != n {
			return nil, errors.New("engine: resume checkpoint sized for a different graph")
		}
	}
	return e, nil
}

// NewResult allocates spec's result over an n-vertex graph: its query type's
// arrays, each filled with its "nothing known" value (Unreached levels and
// distances, own-id labels, uniform ranks).
func NewResult(spec Spec, n uint64) *Result {
	if e := lookup(spec.Algo); e != nil {
		return e.newResult(n)
	}
	return &Result{}
}

func (e *algo) newResult(n uint64) *Result {
	res := &Result{}
	for _, a := range e.arrays {
		a.alloc(res, n)
	}
	return res
}

// shipped is the arrays a share of the entry's result carries: all it fills
// but the ordered ones.
func (e *algo) shipped() []array {
	return slices.DeleteFunc(slices.Clone(e.arrays), func(a array) bool { return a.ordered })
}

// Part returns a share of res, spec's result, for vertices [lo, hi): every
// array the query type fills and ships — all but the ordered ones — cut to
// the range (sharing res's storage), its total, Cancelled and Waves. A
// cluster worker ships its master range as one. Part(spec, res, 0, n) with
// Waves cleared is the same for any two complete, correct runs of spec.
func Part(spec Spec, res *Result, lo, hi uint64) *Result {
	part := &Result{Cancelled: res.Cancelled, Waves: res.Waves}
	e := lookup(spec.Algo)
	if e == nil {
		return part
	}
	for _, a := range e.shipped() {
		a.cut(part, res, lo, hi)
	}
	if e.total != nil {
		*e.total(part) = *e.total(res)
	}
	return part
}

// Merge copies part, a Part of spec's result for vertices [lo, hi), into dst
// from vertex lo and adds its total to dst's. It refuses, leaving dst as it
// was, a part that carries an array spec's query type does not ship, or a
// shipped array not hi-lo long, or a range that does not fit dst. Cancelled
// and Waves are left to the caller. A nil part is an empty one.
func Merge(spec Spec, dst, part *Result, lo, hi uint64) error {
	e := lookup(spec.Algo)
	if e == nil {
		return fmt.Errorf("engine: unknown algorithm %q", spec.Algo)
	}
	if part == nil {
		part = &Result{}
	}
	shipped := e.shipped()
	for _, a := range allArrays {
		want := 0
		if slices.ContainsFunc(shipped, func(s array) bool { return s.name == a.name }) {
			want = int(hi - lo)
			if lo > hi || uint64(a.size(dst)) < hi {
				return fmt.Errorf("engine: vertex range [%d, %d) not within the %d %s entries", lo, hi, a.size(dst), a.name)
			}
		}
		if got := a.size(part); got != want {
			return fmt.Errorf("engine: %d %s entries for vertex range [%d, %d), want %d", got, a.name, lo, hi, want)
		}
	}
	for _, a := range shipped {
		a.put(dst, part, lo)
	}
	if e.total != nil {
		*e.total(dst) += *e.total(part)
	}
	return nil
}
