package engine

import (
	"reflect"
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

// TestPartMerge: every query type's result, cut by Part into two shares and
// merged into a fresh one, is its Part over every vertex, the totals added;
// and Merge refuses, untouched, a share that carries parents or an array the
// type does not fill, or whose arrays do not match its range.
func TestPartMerge(t *testing.T) {
	const n = 16
	for _, a := range Algos() {
		spec := Canonical(Spec{Algo: a, K: 2})
		res := NewResult(spec, n)
		for v := range uint64(n) { // distinct entries, so a misplaced copy shows
			if res.Levels != nil {
				res.Levels[v] = uint32(v)
			}
			if res.Dist != nil {
				res.Dist[v] = v
			}
			if res.Labels != nil {
				res.Labels[v] = graph.Vertex(n - v)
			}
			if res.InCore != nil {
				res.InCore[v] = v%3 == 0
			}
			if res.Ranks != nil {
				res.Ranks[v] = v * v
			}
		}
		total := lookup(a).total
		if total != nil {
			*total(res) = 7
		}
		dst := Part(spec, NewResult(spec, n), 0, n)
		for _, r := range [][2]uint64{{5, n}, {0, 5}} {
			if err := Merge(spec, dst, Part(spec, res, r[0], r[1]), r[0], r[1]); err != nil {
				t.Fatalf("%s: merging [%d, %d): %v", a, r[0], r[1], err)
			}
		}
		want := Part(spec, res, 0, n)
		if total != nil {
			*total(want) = 14
		}
		if !reflect.DeepEqual(dst, want) || dst.Parents != nil {
			t.Errorf("%s: merged %+v, want %+v", a, dst, want)
		}
	}

	bfsSpec, kcoreSpec := Spec{Algo: AlgoBFS}, Spec{Algo: AlgoKCore, K: 2}
	for _, tc := range []struct {
		name   string
		spec   Spec
		part   *Result
		lo, hi uint64
	}{
		{"parents", bfsSpec, &Result{Levels: make([]uint32, 8), Parents: make([]graph.Vertex, 8)}, 0, 8},
		{"levels on kcore", kcoreSpec, &Result{InCore: make([]bool, 8), Levels: make([]uint32, 8)}, 0, 8},
		{"short levels", bfsSpec, &Result{Levels: make([]uint32, 4)}, 0, 8},
		{"missing levels", bfsSpec, nil, 0, 8},
		{"inverted range", bfsSpec, nil, 8, 4},
		{"past the end", bfsSpec, &Result{Levels: make([]uint32, 8)}, 12, 20},
	} {
		dst := Part(tc.spec, NewResult(tc.spec, n), 0, n)
		before := Part(tc.spec, NewResult(tc.spec, n), 0, n)
		if err := Merge(tc.spec, dst, tc.part, tc.lo, tc.hi); err == nil || !reflect.DeepEqual(dst, before) {
			t.Errorf("%s: Merge = %v, dst changed %t; want a refusal leaving dst as it was", tc.name, err, !reflect.DeepEqual(dst, before))
		}
	}
}
