package harness

import (
	"time"

	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
)

// Extensions benchmarks the framework features beyond the paper's three
// evaluation kernels: SSSP and connected components (the other kernels of
// the authors' earlier asynchronous framework, §IV-A) and the wedge-sampling
// approximate triangle counter (§VI-C's suggested extension).
func Extensions(s Sizing) *Table {
	t := &Table{
		Title:   "Extensions: SSSP, connected components, sampled triangles",
		Columns: []string{"kernel", "graph", "p", "time", "result"},
		Notes: []string{
			"these kernels are not in the paper's evaluation; they exercise the same visitor queue",
		},
	}
	p := min(8, s.MaxP)
	spec := RMATSpec(s.VertsPerRankLog2+2, s.Seed)

	opts := CommonOpts{P: p, Topology: "2d", Seed: s.Seed}
	e, err := opts.setup(spec)
	if err != nil {
		panic(err)
	}
	defer e.close()
	ghosts := core.BuildGhostTables(e.parts, core.DefaultGhostsPerPartition)

	// SSSP.
	var src graph.Vertex
	if srcs := pickSources(e.parts, 1, s.Seed); len(srcs) > 0 {
		src = srcs[0]
	}
	res, _, elapsed, err := e.run(ghosts, engine.Spec{Algo: engine.AlgoSSSP, Source: src, WeightSeed: s.Seed}, "sssp.run")
	if err != nil {
		panic(err)
	}
	var maxDist uint64
	for _, d := range res.Dist {
		if d != sssp.Unreached {
			maxDist = max(maxDist, d)
		}
	}
	t.AddRow("sssp", spec.Name, p, elapsed.Round(time.Millisecond), maxDist)

	// Connected components.
	res, _, elapsed, err = e.run(ghosts, engine.Spec{Algo: engine.AlgoCC}, "cc.run")
	if err != nil {
		panic(err)
	}
	t.AddRow("cc", spec.Name, p, elapsed.Round(time.Millisecond), res.Components)

	// Exact vs sampled triangle counting.
	swSpec := SWSpec(uint64(1)<<(s.VertsPerRankLog2+1), 16, 0.05, s.Seed)
	exact, err := RunTriangles(TriangleOpts{CommonOpts: opts, Graph: swSpec})
	if err != nil {
		panic(err)
	}
	t.AddRow("tc-exact", swSpec.Name, p, exact.Time.Round(time.Millisecond), exact.Triangles)

	opts.Simplify = true
	sw, err := opts.setup(swSpec)
	if err != nil {
		panic(err)
	}
	defer sw.close()
	const sampleProb = 0.25
	res, _, elapsed, err = sw.run(nil, engine.Spec{Algo: engine.AlgoTriangles,
		SampleProb: sampleProb, SampleSeed: s.Seed}, "triangle.sampled")
	if err != nil {
		panic(err)
	}
	t.AddRow("tc-sampled-25%", swSpec.Name, p, elapsed.Round(time.Millisecond), uint64(float64(res.Triangles)/sampleProb))

	return t
}
