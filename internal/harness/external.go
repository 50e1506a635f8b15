package harness

import (
	"fmt"

	"havoqgt/internal/extmem"
	"havoqgt/internal/mailbox"
)

// Figure8 reproduces the weak scaling of distributed external-memory BFS:
// every rank stores its edge partition on simulated node-local NVRAM behind
// the user-space page cache, with a fixed DRAM cache budget per rank.
func Figure8(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 8: weak scaling of distributed external-memory BFS (RMAT on simulated NVRAM)",
		Columns: []string{"p", "scale", "edges", "TEPS", "TEPS/rank", "cache-hit-%"},
		Notes: []string{
			"paper: 17B edges per node on Fusion-io NAND Flash, 1T+ edges at 64 nodes",
			"expected shape: TEPS scales with p while each rank's edge set exceeds its cache",
		},
	}
	nv := extmem.DefaultNVRAM()
	// Budget the cache at ~1/8 of each rank's edge bytes so the run is
	// genuinely external.
	for _, p := range s.pSweep() {
		scale := s.VertsPerRankLog2 + log2(p)
		spec := RMATSpec(scale, s.Seed)
		perRankBytes := int(spec.NumGenEdges * 2 * 8 / uint64(p))
		cfg := nv
		cfg.CacheBytes = max(cfg.PageSize, perRankBytes/8)
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "3d", NVRAM: &cfg, Seed: s.Seed},
			Graph:      spec,
			Sources:    s.Sources,
			Ghosts:     256,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(p, scale, res.GlobalEdges/2, res.TEPS, res.TEPS/float64(p),
			100*res.Cache.HitRate())
	}
	return t
}

// Figure9 reproduces the data-scaling experiment: computational resources
// (ranks, DRAM cache budget) held constant while the graph grows, comparing
// against all-DRAM storage of the same graph. The paper's headline: 32x
// larger data than DRAM with only a 39% TEPS degradation.
func Figure9(s Sizing) *Table {
	t := &Table{
		Title:   "Figure 9: increasing external-memory usage at fixed compute (BFS, RMAT)",
		Columns: []string{"scale", "data-vs-cache", "TEPS-dram", "TEPS-nvram", "degradation-%", "cache-hit-%"},
		Notes: []string{
			"paper: 64 Hyperion nodes, 34B to 1T edges; at 32x data NVRAM is only 39% slower than DRAM",
			"expected shape: graceful degradation as the data:cache ratio grows to ~32x",
		},
	}
	p := min(8, s.MaxP)
	baseScale := s.VertsPerRankLog2 + 2
	// Fix the per-rank cache to the base graph's per-rank edge bytes, so the
	// base run is ~1x (fully cached) and each +1 scale doubles the ratio.
	baseSpec := RMATSpec(baseScale, s.Seed)
	cacheBytes := int(baseSpec.NumGenEdges * 2 * 8 / uint64(p))
	nv := extmem.DefaultNVRAM()
	nv.CacheBytes = cacheBytes
	for scale := baseScale; scale <= baseScale+5; scale++ {
		spec := RMATSpec(scale, s.Seed)
		ratio := 1 << (scale - baseScale)
		dram, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: 256,
		})
		if err != nil {
			panic(err)
		}
		nvram, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", NVRAM: &nv, Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: 256,
		})
		if err != nil {
			panic(err)
		}
		deg := 0.0
		if dram.TEPS > 0 {
			deg = 100 * (dram.TEPS - nvram.TEPS) / dram.TEPS
		}
		t.AddRow(scale, fmt.Sprintf("%dx", ratio), dram.TEPS, nvram.TEPS, deg,
			100*nvram.Cache.HitRate())
	}
	return t
}

// TableII reproduces the paper's November 2011 Graph500 results table: the
// same BFS on three storage configurations standing in for the three
// machines (Hyperion-DIT DRAM vs Fusion-io, Trestles' commodity SATA SSDs,
// and single-node Leviathan).
func TableII(s Sizing) *Table {
	t := &Table{
		Title:   "Table II: Graph500-style BFS results across storage configurations",
		Columns: []string{"machine-analog", "ranks", "storage", "scale", "TEPS"},
		Notes: []string{
			"paper: Hyperion-DIT 1,004 MTEPS DRAM scale 31 / 609 MTEPS Fusion-io scale 36;",
			"Trestles 242 MTEPS SATA SSD scale 36; Leviathan single node 52 MTEPS scale 36",
			"expected shape: DRAM > enterprise NVRAM > commodity SSD > single node",
		},
	}
	p := min(8, s.MaxP)
	scaleDRAM := s.VertsPerRankLog2 + 2
	scaleNV := scaleDRAM + 3 // NVRAM configs run a larger graph, as in the paper

	addRun := func(name string, ranks int, storage string, scale uint, nv *extmem.NVRAMConfig) {
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: ranks, Topology: "2d", NVRAM: nv, Seed: s.Seed},
			Graph:      RMATSpec(scale, s.Seed),
			Sources:    s.Sources,
			Ghosts:     256,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(name, ranks, storage, scale, res.TEPS)
	}

	fio := extmem.DefaultNVRAM()
	fio.CacheBytes = 1 << 21
	ssd := extmem.CommoditySSD()
	ssd.CacheBytes = 1 << 21

	addRun("Hyperion-DIT (DRAM)", p, "DRAM", scaleDRAM, nil)
	addRun("Hyperion-DIT (Fusion-io)", p, "sim-NVRAM", scaleNV, &fio)
	addRun("Trestles (SATA SSD)", p, "sim-SSD", scaleNV, &ssd)
	// Leviathan is a single host: the same framework, its ranks in one
	// process, with the graph on the host's flash.
	addRun("Leviathan (single node)", 4, "sim-NVRAM", scaleNV, &fio)
	return t
}

// AblationTopology compares the three routing topologies on the same BFS
// workload: envelope counts, channel bounds, and TEPS.
func AblationTopology(s Sizing) *Table {
	t := &Table{
		Title:   "Ablation: mailbox routing topology (BFS, RMAT)",
		Columns: []string{"topology", "max-channels", "envelopes", "records", "TEPS"},
		Notes: []string{
			"routing trades hops for fewer channels and more aggregation per channel",
		},
	}
	p := s.MaxP
	spec := RMATSpec(s.VertsPerRankLog2+log2(p), s.Seed)
	for _, name := range []string{"1d", "2d", "3d"} {
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: name, Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: 256,
		})
		if err != nil {
			panic(err)
		}
		topo, err := mailbox.ByName(name, p)
		if err != nil {
			panic(err)
		}
		t.AddRow(name, topo.MaxChannels(), res.Stats.EnvelopesSent, res.Stats.RecordsSent, res.TEPS)
	}
	return t
}

// AblationAggregation sweeps the mailbox flush threshold.
func AblationAggregation(s Sizing) *Table {
	t := &Table{
		Title:   "Ablation: mailbox aggregation threshold (BFS, RMAT)",
		Columns: []string{"flush-bytes", "envelopes", "TEPS"},
		Notes: []string{
			"larger aggregation buffers amortize per-message cost until latency dominates",
		},
	}
	p := s.MaxP
	spec := RMATSpec(s.VertsPerRankLog2+log2(p), s.Seed)
	for _, fb := range []int{64, 512, 4096, 32768} {
		res, err := RunBFS(BFSOpts{
			CommonOpts: CommonOpts{P: p, Topology: "2d", FlushBytes: fb, Seed: s.Seed},
			Graph:      spec, Sources: s.Sources, Ghosts: 256,
		})
		if err != nil {
			panic(err)
		}
		t.AddRow(fb, res.Stats.EnvelopesSent, res.TEPS)
	}
	return t
}
