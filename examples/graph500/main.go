// Graph500-style benchmark run: generate the benchmark's RMAT graph, build
// the edge-list partitioned representation, run BFS from a set of random
// roots, validate every traversal Graph500-style, and report the TEPS
// statistics the list reports (min / median / max over roots).
//
//	go run ./examples/graph500
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/harness"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/xrand"
)

const (
	scale    = 13
	ranks    = 8
	numRoots = 8
	seed     = 2026
)

func main() {
	gen := generators.NewGraph500(scale, seed)
	fmt.Printf("Graph500-style run: scale %d (%d vertices, %d generator edges), %d simulated ranks\n",
		scale, gen.NumVertices(), gen.NumEdges(), ranks)

	type rootResult struct {
		root  graph.Vertex
		teps  float64
		depth uint32
	}
	results := make([]rootResult, 0, numRoots)

	// Set-up is one collective phase: every rank generates its chunk and the
	// builder sorts globally into balanced partitions.
	cfg := engine.Config{Machine: rt.NewMachine(ranks), Topology: "3d"}
	start := time.Now()
	parts, err := partition.Build(cfg.Machine, gen.NumVertices(), partition.Undirected(gen.GenerateChunk), partition.EdgeList, false)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Parts = parts
	cfg.Ghosts = core.BuildGhostTables(cfg.Parts, 0)
	buildTime := time.Since(start)

	// Random roots with degree >= 1 (the benchmark's sampling rule); each
	// traversal is one query on a transient engine.
	rng := xrand.New(seed)
	for len(results) < numRoots {
		root := graph.Vertex(rng.Uint64n(gen.NumVertices()))
		if cfg.Parts[0].GlobalDegree(root) == 0 {
			continue
		}
		t0 := time.Now()
		res, _, err := engine.RunOnce(cfg, engine.Options{}, engine.Spec{Algo: engine.AlgoBFS, Source: root})
		elapsed := time.Since(t0)
		if err != nil {
			log.Fatal(err)
		}
		if err := harness.ValidateBFS(cfg.Parts, res.Levels, res.Parents, root); err != nil {
			log.Fatalf("validation failed for root %d: %v", root, err)
		}
		_, depth := bfs.Summary(res.Levels)
		results = append(results, rootResult{
			root:  root,
			teps:  float64(harness.TraversedEdges(cfg.Parts, res.Levels)) / elapsed.Seconds(),
			depth: depth,
		})
	}

	fmt.Printf("construction: %v (distributed sort + equal-count split + CSR)\n\n", buildTime.Round(time.Millisecond))
	fmt.Println("root      depth  TEPS")
	teps := make([]float64, 0, len(results))
	for _, res := range results {
		fmt.Printf("%-9d %-6d %.3g\n", res.root, res.depth, res.teps)
		teps = append(teps, res.teps)
	}
	slices.Sort(teps)
	fmt.Printf("\nvalidated %d/%d traversals\n", len(results), numRoots)
	fmt.Printf("min TEPS:    %.3g\n", teps[0])
	fmt.Printf("median TEPS: %.3g\n", teps[len(teps)/2])
	fmt.Printf("max TEPS:    %.3g\n", teps[len(teps)-1])
}
