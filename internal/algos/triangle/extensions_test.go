package triangle_test

// Wedge-sampling tests, through the query type that carries the option
// (engine.Spec.SampleProb). The Subset and per-vertex-count variations no
// Spec reaches are tested on the same executor in
// internal/engine/visitor_test.go.

import (
	"math"
	"testing"

	"havoqgt/internal/algos/algotest"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
)

// sampledCount returns the raw (unscaled) count of a run under opts.
func sampledCount(t *testing.T, edges []graph.Edge, n uint64, p int, opts triangle.Options) uint64 {
	t.Helper()
	res, _ := algotest.Build(t, edges, n, p, partition.EdgeList, false).Run(t, defaultCfg,
		engine.Spec{Algo: engine.AlgoTriangles, SampleProb: opts.SampleProb, SampleSeed: opts.SampleSeed})
	return res.Triangles
}

func TestZeroSampleProbIsExact(t *testing.T) {
	g := generators.NewSmallWorld(1<<8, 8, 0.05, 2)
	edges := graph.Simplify(graph.Undirect(g.Generate()))
	n := g.NumVertices
	want := ref.CountTriangles(ref.BuildAdj(edges, n))
	got := sampledCount(t, edges, n, 4, triangle.Options{})
	if got != want {
		t.Fatalf("exact run counted %d, want %d", got, want)
	}
	if est := (triangle.Options{}).Estimate(got); est != float64(want) {
		t.Fatalf("exact Estimate = %v", est)
	}
}

func TestWedgeSamplingEstimate(t *testing.T) {
	// Triangle-rich small world: the sampled estimate must land within a
	// loose tolerance of the exact count.
	g := generators.NewSmallWorld(1<<10, 12, 0.02, 9)
	edges := graph.Simplify(graph.Undirect(g.Generate()))
	n := g.NumVertices
	exact := ref.CountTriangles(ref.BuildAdj(edges, n))
	if exact < 1000 {
		t.Fatalf("test graph too triangle-poor: %d", exact)
	}
	opts := triangle.Options{SampleProb: 0.25, SampleSeed: 5}
	count := sampledCount(t, edges, n, 4, opts)
	est := opts.Estimate(count)
	relErr := math.Abs(est-float64(exact)) / float64(exact)
	if relErr > 0.15 {
		t.Fatalf("sampled estimate %.0f vs exact %d (rel err %.3f)", est, exact, relErr)
	}
	// Sampling must actually reduce the closing-edge searches.
	if count >= exact {
		t.Fatalf("sampled run counted %d >= exact %d", count, exact)
	}
}

func TestSamplingDeterministicAcrossRankCounts(t *testing.T) {
	g := generators.NewSmallWorld(1<<8, 8, 0.05, 4)
	edges := graph.Simplify(graph.Undirect(g.Generate()))
	n := g.NumVertices
	opts := triangle.Options{SampleProb: 0.5, SampleSeed: 11}
	a := sampledCount(t, edges, n, 1, opts)
	b := sampledCount(t, edges, n, 4, opts)
	if a != b {
		t.Fatalf("sampled count depends on rank count: %d vs %d", a, b)
	}
}

func TestSampleProbValidatedAtSubmit(t *testing.T) {
	g := algotest.Build(t, nil, 4, 1, partition.EdgeList, false)
	for _, p := range []float64{-0.5, 1, 1.5, math.NaN()} {
		_, _, err := engine.RunOnce(engine.Config{Machine: g.Machine, Parts: g.Parts}, engine.Options{},
			engine.Spec{Algo: engine.AlgoTriangles, SampleProb: p})
		if err == nil {
			t.Errorf("sample probability %v accepted", p)
		}
	}
}
