package harness

import (
	"strings"
	"testing"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
)

// bfsOn runs one BFS from source over spec on p ranks through the harness's
// own set-up and timed-run path.
func bfsOn(t *testing.T, spec GraphSpec, p int, ghosts int, source graph.Vertex) (*env, *engine.Result) {
	t.Helper()
	e, err := (CommonOpts{P: p}).setup(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	res, _, _, err := e.run(core.BuildGhostTables(e.parts, ghosts), engine.Spec{Algo: engine.AlgoBFS, Source: source}, "test")
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// edgeSpec wraps a fixed directed edge list (stored undirected by setup).
func edgeSpec(edges []graph.Edge, n uint64) GraphSpec {
	return GraphSpec{Name: "fixed", NumVertices: n, GenChunk: func(rank, size int) []graph.Edge {
		var local []graph.Edge
		for i, e := range edges {
			if i%size == rank {
				local = append(local, e)
			}
		}
		return local
	}}
}

func TestValidateBFSAcceptsCorrectRun(t *testing.T) {
	e, res := bfsOn(t, RMATSpec(9, 17), 4, 64, 1)
	if err := ValidateBFS(e.parts, res.Levels, res.Parents, 1); err != nil {
		t.Fatalf("correct BFS failed validation: %v", err)
	}
}

func TestValidateBFSRejectsCorruptedLevels(t *testing.T) {
	e, res := bfsOn(t, RMATSpec(8, 3), 3, -1, 0)
	// Corrupt one reached vertex's level.
	for v := range res.Levels {
		if res.Levels[v] != bfs.Unreached && res.Levels[v] > 0 {
			res.Levels[v] += 7
			break
		}
	}
	if ValidateBFS(e.parts, res.Levels, res.Parents, 0) == nil {
		t.Fatal("corrupted levels passed validation")
	}
}

func TestValidateBFSRejectsBadParent(t *testing.T) {
	e, res := bfsOn(t, edgeSpec([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, 4), 2, 0, 0)
	// Point vertex 3's parent at vertex 0 (level 0, not level 2).
	res.Parents[3] = 0
	err := ValidateBFS(e.parts, res.Levels, res.Parents, 0)
	if err == nil {
		t.Fatal("bad parent passed validation")
	}
	if !strings.Contains(err.Error(), "parent") {
		t.Fatalf("unexpected validation error: %v", err)
	}
}

func TestValidateBFSDisconnected(t *testing.T) {
	e, res := bfsOn(t, edgeSpec([]graph.Edge{{Src: 0, Dst: 1}, {Src: 4, Dst: 5}}, 8), 2, 0, 0)
	if err := ValidateBFS(e.parts, res.Levels, res.Parents, 0); err != nil {
		t.Fatalf("disconnected graph failed validation: %v", err)
	}
}
