// Package havoqgt's root benchmarks: the headline kernels at a fixed size
// and microbenchmarks of the substrates, for reading one layer while working
// on it. Run:
//
//	go test -run '^$' -bench=. -benchmem .
//
// cmd/experiments draws the paper's figures and tables; bench/ (bash
// bench/run.sh) is what times the system end to end.
package havoqgt

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/harness"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/ooc"
	"havoqgt/internal/pagecache"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
	"havoqgt/internal/xrand"
)

// --- headline kernels at a fixed size, reporting TEPS ---

func benchBFSTEPS(b *testing.B, ghosts int, topo string, nv *ooc.Config) {
	spec := harness.RMATSpec(12, 42)
	var teps float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunBFS(harness.BFSOpts{
			CommonOpts: harness.CommonOpts{P: 4, Topology: topo, OOC: nv, Seed: 42},
			Graph:      spec, Sources: 1, Ghosts: ghosts,
		})
		if err != nil {
			b.Fatal(err)
		}
		teps = res.TEPS
	}
	b.ReportMetric(teps, "TEPS")
}

func BenchmarkBFSNoGhosts(b *testing.B)  { benchBFSTEPS(b, -1, "1d", nil) }
func BenchmarkBFSGhosts256(b *testing.B) { benchBFSTEPS(b, 256, "1d", nil) }
func BenchmarkBFS2DRouting(b *testing.B) { benchBFSTEPS(b, 256, "2d", nil) }
func BenchmarkBFS3DRouting(b *testing.B) { benchBFSTEPS(b, 256, "3d", nil) }

func BenchmarkBFSNVRAM(b *testing.B) {
	// A 64 KiB page cache per rank: a quarter of its targets.
	benchBFSTEPS(b, 256, "1d", &ooc.Config{ResidentFraction: 1.0 / 4})
}

func BenchmarkKCoreRMAT(b *testing.B) {
	spec := harness.RMATSpec(12, 42)
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunKCore(harness.KCoreOpts{
			CommonOpts: harness.CommonOpts{P: 4, Seed: 42},
			Graph:      spec, Ks: []uint32{4},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleSmallWorld(b *testing.B) {
	spec := harness.SWSpec(1<<11, 16, 0.1, 42)
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTriangles(harness.TriangleOpts{
			CommonOpts: harness.CommonOpts{P: 4, Seed: 42},
			Graph:      spec,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenchmarks ---

func BenchmarkRMATGeneration(b *testing.B) {
	g := generators.NewGraph500(14, 1)
	b.SetBytes(int64(g.NumEdges() * 16))
	for i := 0; i < b.N; i++ {
		g.Generate()
	}
}

func BenchmarkPAGeneration(b *testing.B) {
	g := generators.NewPA(1<<12, 8, 0.1, 1)
	for i := 0; i < b.N; i++ {
		g.Generate()
	}
}

func BenchmarkBijectionApply(b *testing.B) {
	bij := xrand.NewBijection(1<<20, 1)
	for i := 0; i < b.N; i++ {
		bij.Apply(uint64(i) & (1<<20 - 1))
	}
}

func BenchmarkSequentialBFS(b *testing.B) {
	g := generators.NewGraph500(14, 1)
	edges := graph.Undirect(g.Generate())
	adj := ref.BuildAdj(edges, g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.BFS(adj, 0)
	}
}

func BenchmarkEdgeListBuild(b *testing.B) {
	g := generators.NewGraph500(12, 1)
	for i := 0; i < b.N; i++ {
		rt.NewMachine(4).Run(func(r *rt.Rank) {
			local := graph.Undirect(g.GenerateChunk(r.Rank(), r.Size()))
			if _, err := partition.BuildEdgeList(r, local, g.NumVertices()); err != nil {
				panic(err)
			}
		})
	}
}

func BenchmarkGhostTableBuild(b *testing.B) {
	g := generators.NewGraph500(12, 1)
	parts := make([]*partition.Part, 4)
	rt.NewMachine(4).Run(func(r *rt.Rank) {
		local := graph.Undirect(g.GenerateChunk(r.Rank(), r.Size()))
		part, err := partition.BuildEdgeList(r, local, g.NumVertices())
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildGhostTable(parts[i%4], 256)
	}
}

func BenchmarkPageCacheHit(b *testing.B) {
	data := make([]byte, 1<<20)
	c, err := pagecache.New(&pagecache.MemDevice{Data: data}, 4096, 64)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	c.ReadAt(buf, 0) // warm one page
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReadAt(buf, int64(i%8)*256)
	}
}

func BenchmarkPageCacheMissEvict(b *testing.B) {
	data := make([]byte, 1<<22)
	c, err := pagecache.New(&pagecache.MemDevice{Data: data}, 4096, 16)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride beyond capacity so every read evicts.
		c.ReadAt(buf, int64(i%1024)*4096)
	}
}

func BenchmarkMailboxAggregation(b *testing.B) {
	rt.NewMachine(2).Run(func(r *rt.Rank) {
		if r.Rank() != 0 {
			// Rank 1 drains whatever arrives until rank 0 signals done.
			det := termination.New(r)
			box := mailbox.New(r, mailbox.NewDirect(2), det)
			for !det.Pump(box.Idle()) {
				box.Poll()
			}
			return
		}
		det := termination.New(r)
		box := mailbox.New(r, mailbox.NewDirect(2), det)
		payload := make([]byte, 24)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box.Send(1, payload)
		}
		b.StopTimer()
		box.FlushAll()
		for !det.Pump(box.Idle()) {
			box.Poll()
		}
	})
}

func BenchmarkTerminationWave(b *testing.B) {
	// Each iteration runs one full quiescence detection (>= 2 waves) on an
	// idle 8-rank machine.
	for i := 0; i < b.N; i++ {
		waves := make([]uint64, 1)
		rt.NewMachine(8).Run(func(r *rt.Rank) {
			det := termination.New(r)
			deadline := time.Now().Add(60 * time.Second)
			for !det.Pump(true) {
				runtime.Gosched() // as the visitor queue's idle loop does
				if time.Now().After(deadline) {
					panic("no quiescence")
				}
			}
			if r.Rank() == 0 {
				waves[0] = det.Waves
			}
		})
		if waves[0] == 0 {
			b.Fatal("no waves")
		}
	}
}

func BenchmarkCollectiveAllReduce(b *testing.B) {
	rt.NewMachine(8).Run(func(r *rt.Rank) {
		for i := 0; i < b.N; i++ {
			r.AllReduceU64(uint64(i), rt.Sum)
		}
	})
}

var sinkEdges []graph.Edge

func BenchmarkUndirect(b *testing.B) {
	g := generators.NewGraph500(14, 1)
	edges := g.Generate()
	b.SetBytes(int64(len(edges) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEdges = graph.Undirect(edges)
	}
}

func BenchmarkCensus(b *testing.B) {
	g := generators.NewGraph500(14, 1)
	deg := graph.OutDegrees(graph.Undirect(g.Generate()), g.NumVertices())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Census(deg)
	}
}

func Example_tableFormat() {
	t := &harness.Table{Title: "demo", Columns: []string{"x", "y"}}
	t.AddRow(1, 2)
	fmt.Print(t.String())
	// Output:
	// == demo ==
	// x  y
	// 1  2
}

func BenchmarkFacadeBFS(b *testing.B) {
	g, err := GenerateRMAT(12, 42, Options{Ranks: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BFS(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampledTriangles(b *testing.B) {
	g, err := GenerateRMAT(11, 42, Options{Ranks: 4, Simplify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.EstimateTriangles(0.1, 7); err != nil {
			b.Fatal(err)
		}
	}
}
