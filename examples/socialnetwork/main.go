// Social-network analysis: generate a preferential-attachment graph (a
// stand-in for a social network with celebrity hubs), then answer three
// classic questions with the distributed algorithms:
//
//  1. How tightly knit is the network? (triangle count → clustering
//     coefficient)
//
//  2. Who belongs to the engaged core? (k-core decomposition)
//
//  3. How many hops separate users from a seed? (BFS)
//
// Run with:
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

const (
	numUsers = 1 << 12
	mPerUser = 8
	ranks    = 8
)

func main() {
	gen := generators.NewPA(numUsers, mPerUser, 0.05, 7)

	seedVertex := graph.Vertex(42)

	// Every rank generates its own chunk of the network; the builder sorts
	// globally and hands back balanced partitions. Simplify: k-core needs a
	// simple graph.
	cfg := engine.Config{Machine: rt.NewMachine(ranks), Topology: "2d"}
	parts, err := partition.Build(cfg.Machine, numUsers, partition.Undirected(gen.GenerateChunk), partition.EdgeList, true)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Parts = parts
	// Each question is one query on a transient engine over the machine.
	query := func(cfg engine.Config, spec engine.Spec) *engine.Result {
		res, _, err := engine.RunOnce(cfg, engine.Options{}, spec)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// 1. Triangles and wedges -> global clustering coefficient.
	triangles := query(cfg, engine.Spec{Algo: engine.AlgoTriangles}).Triangles
	var wedges uint64
	for _, d := range cfg.Parts[0].Degrees {
		wedges += uint64(d) * uint64(d-1) / 2
	}

	// 2. k-core decomposition at increasing k: the "engaged core".
	coreSizes := map[uint32]uint64{}
	for _, k := range []uint32{2, 4, 8, 16} {
		coreSizes[k] = query(cfg, engine.Spec{Algo: engine.AlgoKCore, K: k}).CoreSize
	}

	// 3. Degrees of separation from a seed user, with ghost filtering for
	// the celebrity hubs.
	bcfg := cfg
	bcfg.Ghosts = core.BuildGhostTables(cfg.Parts, core.DefaultGhostsPerPartition)
	histogram := make([]uint64, 16)
	var reachable uint64
	for _, l := range query(bcfg, engine.Spec{Algo: engine.AlgoBFS, Source: seedVertex}).Levels {
		if l != bfs.Unreached {
			reachable++
			if int(l) < len(histogram) {
				histogram[l]++
			}
		}
	}

	fmt.Printf("social network: %d users, preferential attachment (m=%d), %d simulated ranks\n\n",
		numUsers, mPerUser, ranks)

	cc := 0.0
	if wedges > 0 {
		cc = 3 * float64(triangles) / float64(wedges)
	}
	fmt.Printf("triangles: %d   wedges: %d   global clustering coefficient: %.4f\n\n",
		triangles, wedges, cc)

	fmt.Println("engaged cores (largest subgraph where everyone has >= k in-core friends):")
	for _, k := range []uint32{2, 4, 8, 16} {
		fmt.Printf("  %2d-core: %5d users (%.1f%%)\n", k, coreSizes[k],
			100*float64(coreSizes[k])/numUsers)
	}

	fmt.Printf("\ndegrees of separation from user %d (reached %d of %d users):\n",
		seedVertex, reachable, numUsers)
	for l, c := range histogram {
		if c > 0 {
			fmt.Printf("  %2d hops: %5d users\n", l, c)
		}
	}
}
