package engine

import (
	"slices"
	"testing"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/ref"
)

// register adds a query type to the table until the returned func removes
// it. Entries are resolved at submission, so a query submitted before the
// removal runs to its end either way.
func register(a *algo) (unregister func()) {
	algos = append(algos, a)
	return func() { algos = slices.DeleteFunc(algos, func(e *algo) bool { return e == a }) }
}

// reach is a toy eighth query type, whole in this one entry: the vertices a
// BFS from the source reaches, as flags in Result.InCore and their count in
// Result.CoreSize. It reads Source alone, checks it like bfs does, and does
// not resume.
var reach = &algo{
	name:   "reach",
	params: source,
	check:  sourceInRange,
	arrays: []array{inCore},
	run: func(env *runEnv) runner {
		part, q := env.part, env.q
		st := bfs.New(part)
		qu := newQueue[bfs.Visitor](env, st)
		if part.IsMaster(q.spec.Source) {
			qu.Push(bfs.Visitor{V: q.spec.Source, Parent: q.spec.Source})
		}
		return &run{queue: qu, finish: func() {
			var reached uint64
			forMasters(part, func(v graph.Vertex) {
				if i, _ := part.LocalIndex(v); st.Level[i] != bfs.Unreached {
					q.res.InCore[v] = true
					reached++
				}
			})
			q.accum.Add(reached)
		}}
	},
	total: func(r *Result) *uint64 { return &r.CoreSize },
}

// TestToyQueryTypeIsOneEntry: registering one table entry is all a new query
// type needs to validate, canonicalise, run through Submit and RunOnce, and
// total across ranks; removing it makes the engine refuse the type again.
func TestToyQueryTypeIsOneEntry(t *testing.T) {
	const p = 4
	gen := generators.NewGraph500(10, 42)
	edges, n := graph.Undirect(gen.Generate()), gen.NumVertices()
	g := buildTestGraph(t, edges, n, p)
	g.ghosts = core.BuildGhostTables(g.parts, 0)
	g.topo = "2d"
	cfg := Config{Machine: g.m, Parts: g.parts, Ghosts: g.ghosts, Topology: g.topo}

	var source graph.Vertex
	for g.parts[0].GlobalDegree(source) == 0 {
		source++
	}
	levels, _ := ref.BFS(ref.BuildAdj(edges, n), source)
	var want uint64
	for _, l := range levels {
		if l != bfs.Unreached {
			want++
		}
	}
	spec := Spec{Algo: reach.name, Source: source, K: 9}
	matches := func(how string, res *Result) {
		t.Helper()
		if res.CoreSize != want {
			t.Errorf("%s: reached %d, reference %d", how, res.CoreSize, want)
		}
		for v, l := range levels {
			if res.InCore[v] != (l != bfs.Unreached) {
				t.Fatalf("%s: vertex %d reached %v, reference level %d", how, v, res.InCore[v], l)
			}
		}
	}

	unregister := register(reach)
	if got := Canonical(spec); got != (Spec{Algo: reach.name, Source: source}) {
		t.Errorf("Canonical kept a field reach does not read: %+v", got)
	}
	if err := Validate(Spec{Algo: reach.name, Source: graph.Vertex(n)}, n); err == nil {
		t.Error("reach accepted an out-of-range source")
	}
	if err := Validate(Spec{Algo: reach.name, Source: source, Deadline: -time.Millisecond}, n); err == nil {
		t.Error("reach accepted a negative deadline")
	}
	e, err := Start(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	matches("Submit", tk.Wait())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	res, _, err := RunOnce(cfg, Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	matches("RunOnce", res)

	unregister()
	if err := Validate(spec, n); err == nil {
		t.Fatal("Validate accepted reach after it left the table")
	}
	if len(algos) != 7 || slices.Contains(Algos(), reach.name) {
		t.Fatalf("table after removal: %v", Algos())
	}
}
