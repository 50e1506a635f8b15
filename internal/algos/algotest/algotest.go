// Package algotest provides shared helpers for end-to-end tests of the
// distributed algorithms: build a partitioned graph across a simulated
// machine, run queries on it through the one executor (engine.RunOnce), and
// compare against the sequential references.
package algotest

import (
	"testing"

	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// Builder constructs a partition collectively (partition.BuildEdgeList or
// partition.Build1D).
type Builder func(r *rt.Rank, local []graph.Edge, n uint64) (*partition.Part, error)

// Graph is a partitioned graph on its own simulated machine.
type Graph struct {
	Machine *rt.Machine
	Parts   []*partition.Part
}

// Build scatters edges round-robin over p ranks and builds each rank's
// partition with build.
func Build(t testing.TB, edges []graph.Edge, n uint64, p int, build Builder) *Graph {
	t.Helper()
	g := &Graph{Machine: rt.NewMachine(p), Parts: make([]*partition.Part, p)}
	errs := make([]error, p)
	g.Machine.Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		g.Parts[r.Rank()], errs[r.Rank()] = build(r, local, n)
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// Setup is how a query runs on a Graph; the zero value is 1-D routing, the
// default ghost tables, default core.Config.
type Setup struct {
	Topology string // "1d" (default), "2d", "3d"
	Ghosts   int    // ghost table cap per partition (core.BuildGhostTables: 0 = default, negative = none)
	Core     core.Config
}

// Run answers one query on a transient engine and returns its result with
// the per-rank counters. A failed query fails the test.
func (g *Graph) Run(t testing.TB, s Setup, spec engine.Spec) (*engine.Result, []core.Stats) {
	t.Helper()
	cfg := engine.Config{Machine: g.Machine, Parts: g.Parts, Topology: s.Topology,
		Ghosts: core.BuildGhostTables(g.Parts, s.Ghosts)}
	res, stats, err := engine.RunOnce(cfg, engine.Options{Core: s.Core}, spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Algo, err)
	}
	return res, stats
}
