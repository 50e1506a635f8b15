package check_test

// Chaos harness (`make chaos`): seeded fault plans × every algorithm × every
// routing topology, each run on the simulated machine with a deterministic
// fault injector armed on the transport. A case must produce the exact
// sequential-reference answer or fail with a typed error — never hang
// (per-case watchdog), never panic (Case.Run recovers panics into errors),
// never silently diverge (per-vertex reference comparison). External test
// package because the engine half imports internal/engine, which itself
// imports check.

import (
	"context"
	"errors"
	"testing"
	"time"

	"havoqgt/internal/check"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/faults"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/obs"
	"havoqgt/internal/partition"
	"havoqgt/internal/ref"
	"havoqgt/internal/rt"
)

// chaosWatchdog bounds one chaos case. A case that misses it has hung —
// deadlock or lost termination — which is precisely the failure class this
// harness exists to catch; the watchdog converts it into a test failure
// instead of a stuck suite.
const chaosWatchdog = 90 * time.Second

func runWithWatchdog(t *testing.T, c check.Case) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(chaosWatchdog):
		t.Fatalf("chaos watchdog: %s still running after %v (deadlock or lost termination)",
			c, chaosWatchdog)
		return nil
	}
}

// TestChaosSweep is the main matrix: 20 seeded fault plans (8 under -short;
// both cover all four plan families) × every algorithm × 3 topologies. The
// cases set no deadline, so there is no escape hatch: under these plans —
// loss only ever paired with the reliable mailbox — every single case must
// complete AND match the reference. The ≥95%-correct-at-drop≤10% acceptance
// bar is tallied explicitly over the lossy families.
func TestChaosSweep(t *testing.T) {
	check.NoLeaks(t) // zero leaked goroutines across the whole sweep
	const seed = 0xC4A05EED
	plans := 20
	if testing.Short() {
		plans = 8
	}
	runs, lossyRuns, lossyCorrect := 0, 0, 0
	for idx := 0; idx < plans; idx++ {
		fam := check.Family(idx)
		lossy := fam == check.FamilyLossy || fam == check.FamilyCombined
		for _, topo := range check.Topologies() {
			for _, algo := range check.Algos() {
				c := check.ChaosCaseAt(algo, topo, seed, idx)
				err := runWithWatchdog(t, c)
				runs++
				if lossy {
					lossyRuns++
					if err == nil {
						lossyCorrect++
					}
				}
				if err != nil {
					t.Errorf("plan %d (%s): %v", idx, fam, err)
				}
			}
		}
	}
	if lossyRuns > 0 && float64(lossyCorrect) < 0.95*float64(lossyRuns) {
		t.Errorf("lossy plans (drop ≤ 10%%): %d/%d correct completions, need ≥ 95%%",
			lossyCorrect, lossyRuns)
	}
	t.Logf("chaos sweep: %d runs over %d plans; lossy %d/%d correct", runs, plans, lossyCorrect, lossyRuns)
}

// buildChaosEngine builds a partitioned RMAT graph on a fresh machine, arms
// the fault plan on its transport (build phase runs clean), and starts a
// multi-query engine over it.
func buildChaosEngine(t *testing.T, scale uint, p int, topo string,
	opts engine.Options, idx int) (*engine.Engine, []graph.Edge, uint64) {
	t.Helper()
	check.NoLeaks(t)
	plan, reliable := check.ChaosPlan(0xE4617E, idx)
	if !reliable {
		t.Fatalf("plan %d (%s) does not require the reliable mailbox; pick a lossy index", idx, check.Family(idx))
	}
	gen := generators.NewGraph500(scale, 42)
	n := gen.NumVertices()
	var edges []graph.Edge
	for r := 0; r < p; r++ {
		edges = append(edges, graph.Undirect(gen.GenerateChunk(r, p))...)
	}
	m := rt.NewMachine(p)
	parts := make([]*partition.Part, p)
	m.Run(func(r *rt.Rank) {
		local := graph.Undirect(gen.GenerateChunk(r.Rank(), r.Size()))
		part, err := partition.BuildEdgeList(r, local, n)
		if err != nil {
			panic(err)
		}
		parts[r.Rank()] = part
	})
	inj := faults.New(plan, m.Obs())
	m.SetTransport(inj)
	inj.Arm()
	e, err := engine.Start(engine.Config{Machine: m, Parts: parts, Ghosts: core.BuildGhostTables(parts, 0), Topology: topo}, opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return e, edges, n
}

// TestChaosEngineRecovery runs the multi-query engine's full recovery ladder
// under lossy chaos plans: a BFS whose first deadline is too tight must climb
// the checkpoint-resume ladder to the exact answer (typed timeout errors in
// between, never a wrong result), an undeadlined CC must simply absorb every
// fault through the reliable mailbox, and both the injected faults and the
// retransmissions they forced must be visible in the obs registry.
func TestChaosEngineRecovery(t *testing.T) {
	indices := []int{0, 4} // FamilyLossy slots in the round-robin
	if testing.Short() {
		indices = indices[:1]
	}
	for _, idx := range indices {
		// FlushBytes 32 keeps envelopes tiny, so the traversal emits many
		// frames and even a 2% drop rule is guaranteed to bite.
		e, edges, n := buildChaosEngine(t, 9, 4, "2d",
			engine.Options{MaxInFlight: 4, Core: core.Config{FlushBytes: 32, Reliable: true,
				RTOBase: time.Millisecond, RTOMax: 20 * time.Millisecond}}, idx)
		adj := ref.BuildAdj(edges, n)
		const src = 3
		wantLv, _ := ref.BFS(adj, src)
		wantLabels, wantCount := ref.Components(adj)

		// Deadline ladder: 2ms is tight for a faulty scale-8 plane, so some
		// attempts expire; each expiry must surface context.DeadlineExceeded
		// and resume from its checkpoint with a doubled budget.
		spec := engine.Spec{Algo: engine.AlgoBFS, Source: src, Deadline: 2 * time.Millisecond}
		timeouts := 0
		for {
			tk, err := e.Submit(spec)
			if err != nil {
				t.Fatalf("plan %d: Submit: %v", idx, err)
			}
			res := tk.Wait()
			if werr := tk.Err(); werr != nil {
				if !errors.Is(werr, context.DeadlineExceeded) {
					t.Fatalf("plan %d: attempt error %v, want DeadlineExceeded", idx, werr)
				}
				if timeouts++; timeouts > 24 {
					t.Fatalf("plan %d: deadline ladder did not converge in 24 attempts", idx)
				}
				if cp := tk.Checkpoint(); cp != nil {
					spec = cp.ResumeSpec(spec.Deadline * 2)
				} else {
					spec.Deadline *= 2
				}
				continue
			}
			for v := uint64(0); v < n; v++ {
				if res.Levels[v] != wantLv[v] {
					t.Fatalf("plan %d: bfs level(%d) = %d, ref says %d", idx, v, res.Levels[v], wantLv[v])
				}
			}
			break
		}

		// No deadline: the reliable mailbox alone must carry CC to the exact
		// fixpoint through drops, duplicates and corruption.
		tk, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
		if err != nil {
			t.Fatalf("plan %d: Submit cc: %v", idx, err)
		}
		res := tk.Wait()
		if werr := tk.Err(); werr != nil {
			t.Fatalf("plan %d: cc failed under reliable mailbox: %v", idx, werr)
		}
		if res.Components != wantCount {
			t.Fatalf("plan %d: cc count %d, ref says %d", idx, res.Components, wantCount)
		}
		for v := uint64(0); v < n; v++ {
			if res.Labels[v] != wantLabels[v] {
				t.Fatalf("plan %d: cc label(%d) = %d, ref says %d", idx, v, res.Labels[v], wantLabels[v])
			}
		}

		// The newer query types must likewise absorb every fault through the
		// reliable mailbox: direction-optimizing BFS bit-identical to the
		// top-down reference levels, pagerank bit-identical to the sequential
		// fixed-point reference, triangles exact on the raw multigraph.
		tkDO, err := e.Submit(engine.Spec{Algo: engine.AlgoBFSDO, Source: src})
		if err != nil {
			t.Fatalf("plan %d: Submit bfs_do: %v", idx, err)
		}
		resDO := tkDO.Wait()
		if werr := tkDO.Err(); werr != nil {
			t.Fatalf("plan %d: bfs_do failed under reliable mailbox: %v", idx, werr)
		}
		for v := uint64(0); v < n; v++ {
			if resDO.Levels[v] != wantLv[v] {
				t.Fatalf("plan %d: bfs_do level(%d) = %d, ref says %d", idx, v, resDO.Levels[v], wantLv[v])
			}
		}
		tkPR, err := e.Submit(engine.Spec{Algo: engine.AlgoPageRank, Iters: 6})
		if err != nil {
			t.Fatalf("plan %d: Submit pagerank: %v", idx, err)
		}
		resPR := tkPR.Wait()
		if werr := tkPR.Err(); werr != nil {
			t.Fatalf("plan %d: pagerank failed under reliable mailbox: %v", idx, werr)
		}
		wantPR := ref.PageRank(adj, 6)
		for v := uint64(0); v < n; v++ {
			if resPR.Ranks[v] != wantPR[v] {
				t.Fatalf("plan %d: pagerank rank(%d) = %d, ref says %d", idx, v, resPR.Ranks[v], wantPR[v])
			}
		}
		tkTri, err := e.Submit(engine.Spec{Algo: engine.AlgoTriangles})
		if err != nil {
			t.Fatalf("plan %d: Submit triangles: %v", idx, err)
		}
		resTri := tkTri.Wait()
		if werr := tkTri.Err(); werr != nil {
			t.Fatalf("plan %d: triangles failed under reliable mailbox: %v", idx, werr)
		}
		if wantTri := ref.CountTriangles(ref.BuildAdj(graph.Simplify(edges), n)); resTri.Triangles != wantTri {
			t.Fatalf("plan %d: triangles %d, ref says %d", idx, resTri.Triangles, wantTri)
		}

		reg := e.Obs()
		if reg.Counter(obs.FaultInjected("drop")).Value() == 0 {
			t.Errorf("plan %d: lossy plan injected no drops; adversary inert", idx)
		}
		if reg.PerRank(obs.MBRetransmits, 1).Total() == 0 {
			t.Errorf("plan %d: drops injected but no retransmissions recorded", idx)
		}
		t.Logf("plan %d: bfs converged after %d timeouts; drops=%d retransmits=%d", idx, timeouts,
			reg.Counter(obs.FaultInjected("drop")).Value(), reg.PerRank(obs.MBRetransmits, 1).Total())
		if err := e.Close(); err != nil {
			t.Fatalf("plan %d: Close: %v", idx, err)
		}
	}
}
