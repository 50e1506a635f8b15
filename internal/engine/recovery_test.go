package engine_test

// Recovery-path tests: cancellation causes as context errors, WaitCtx
// prompt release of queued queries, checkpoint/resume of cancelled
// traversals, and the engine running its shared mailbox in reliable mode
// over a faulty transport.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"havoqgt/internal/algos/bfs"
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

// buildEngineFaulty is buildEngine with a fault injector armed on the
// machine's transport after graph construction (the build phase's collectives
// are not part of the fault model).
func buildEngineFaulty(t *testing.T, scale uint, p int, topo string,
	opts engine.Options, plan faults.Plan) (*engine.Engine, []graph.Edge, uint64) {
	t.Helper()
	check.NoLeaks(t)
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

// TestEngineErrCauses checks the Err mapping: clean completion is nil,
// explicit Cancel is context.Canceled, deadline expiry is
// context.DeadlineExceeded.
func TestEngineErrCauses(t *testing.T) {
	e, _, _ := buildEngine(t, 8, 3, "1d", engine.Options{MaxInFlight: 1, MaxQueue: 4})
	defer e.Close()

	// Clean completion.
	done, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done.Wait()
	if got := done.Err(); got != nil {
		t.Fatalf("completed query Err = %v, want nil", got)
	}

	// Explicit cancel of a queued query.
	blocker, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 1})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	queued.Cancel()
	queued.Wait()
	if got := queued.Err(); !errors.Is(got, context.Canceled) {
		t.Fatalf("cancelled query Err = %v, want context.Canceled", got)
	}
	blocker.Wait()

	// Deadline expiry.
	dl, err := e.Submit(engine.Spec{Algo: engine.AlgoCC, Deadline: time.Microsecond})
	if err != nil {
		t.Fatalf("Submit deadline: %v", err)
	}
	res := dl.Wait()
	if !res.Cancelled {
		t.Skip("query beat a 1µs deadline; nothing to assert")
	}
	if got := dl.Err(); !errors.Is(got, context.DeadlineExceeded) {
		t.Fatalf("deadline-expired query Err = %v, want context.DeadlineExceeded", got)
	}
	if e.Obs().Counter(obs.EngineDeadlineExpired).Value() == 0 {
		t.Error("EngineDeadlineExpired counter not incremented")
	}
}

// TestEngineWaitCtxReleasesQueuedQuery is the wait-queue cancellation
// regression test: a query parked behind a full in-flight set whose caller
// context expires must come back promptly with context.DeadlineExceeded and
// free its wait-queue slot immediately — not linger until a slot opens.
func TestEngineWaitCtxReleasesQueuedQuery(t *testing.T) {
	e, _, _ := buildEngine(t, 10, 4, "1d", engine.Options{MaxInFlight: 1, MaxQueue: 1})
	defer e.Close()

	blocker, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	// Pre-expired context: the deadline has already passed when WaitCtx runs,
	// so the call must cancel the (still-queued) query rather than wait for
	// the blocker to free a slot. Timeout 0 keeps the DeadlineExceeded cause.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	begin := time.Now()
	res, werr := queued.WaitCtx(ctx)
	elapsed := time.Since(begin)
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx = %v, want context.DeadlineExceeded", werr)
	}
	if !res.Cancelled {
		t.Fatal("queued query released by WaitCtx not marked Cancelled")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("WaitCtx took %v; queued query was not released promptly", elapsed)
	}

	// The wait-queue slot must be free immediately: with MaxQueue 1 and the
	// blocker still (possibly) running, this submit must not hit ErrRejected.
	next, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 1})
	if err != nil {
		t.Fatalf("post-release submit: %v (wait-queue slot not reclaimed)", err)
	}
	if res := next.Wait(); res.Cancelled {
		t.Fatal("follow-up query cancelled unexpectedly")
	}
	blocker.Wait()
}

// TestEngineResumeFromCheckpoint seeds a BFS from a synthetic mid-traversal
// checkpoint (the reference truncated at level 2) and requires the resumed
// query to finish the traversal exactly: full agreement with the reference,
// including parent consistency for vertices discovered after the cut.
func TestEngineResumeFromCheckpoint(t *testing.T) {
	e, edges, n := buildEngine(t, 9, 4, "2d", engine.Options{})
	defer e.Close()

	adj := ref.BuildAdj(edges, n)
	wantLv, wantPar := ref.BFS(adj, 0)

	const cut = 2
	lv := make([]uint32, n)
	par := make([]graph.Vertex, n)
	for v := uint64(0); v < n; v++ {
		if wantLv[v] <= cut {
			lv[v], par[v] = wantLv[v], wantPar[v]
		} else {
			lv[v], par[v] = bfs.Unreached, graph.Nil
		}
	}
	cp := &engine.Checkpoint{
		Spec: engine.Spec{Algo: engine.AlgoBFS, Source: 0},
		Res:  &engine.Result{Levels: lv, Parents: par, Cancelled: true},
	}
	tk, err := e.Submit(cp.ResumeSpec(0))
	if err != nil {
		t.Fatalf("Submit resume: %v", err)
	}
	res := tk.Wait()
	if res.Cancelled {
		t.Fatal("resumed query cancelled unexpectedly")
	}
	for v := uint64(0); v < n; v++ {
		if res.Levels[v] != wantLv[v] {
			t.Fatalf("vertex %d: resumed level %d, reference %d", v, res.Levels[v], wantLv[v])
		}
	}
	for v := uint64(0); v < n; v++ {
		if res.Levels[v] == bfs.Unreached || v == 0 {
			continue
		}
		p := res.Parents[v]
		if p == graph.Nil || res.Levels[p] != res.Levels[v]-1 {
			t.Fatalf("vertex %d at level %d has parent %d at level %d",
				v, res.Levels[v], p, res.Levels[p])
		}
	}
	if e.Obs().Counter(obs.EngineResumed).Value() != 1 {
		t.Error("EngineResumed counter not incremented")
	}
	checkFlows(t, tk)
}

// TestEngineDeadlineRetryWithCheckpoint is the end-to-end degradation loop a
// server runs: submit with a tight deadline, and on expiry resubmit from the
// cancelled attempt's checkpoint with a doubled budget until the traversal
// completes. The final result must match the reference regardless of how
// many attempts the deadline killed.
func TestEngineDeadlineRetryWithCheckpoint(t *testing.T) {
	e, edges, n := buildEngine(t, 10, 4, "1d", engine.Options{})
	defer e.Close()

	adj := ref.BuildAdj(edges, n)
	wantLv, _ := ref.BFS(adj, 3)

	spec := engine.Spec{Algo: engine.AlgoBFS, Source: 3, Deadline: 200 * time.Microsecond}
	var res *engine.Result
	cancelledAttempts := 0
	for attempt := 0; ; attempt++ {
		if attempt == 8 {
			spec.Deadline = 0 // last attempt: unbounded, must complete
		}
		tk, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("Submit attempt %d: %v", attempt, err)
		}
		res = tk.Wait()
		if !res.Cancelled {
			break
		}
		cancelledAttempts++
		if !errors.Is(tk.Err(), context.DeadlineExceeded) {
			t.Fatalf("attempt %d: Err = %v, want context.DeadlineExceeded", attempt, tk.Err())
		}
		cp := tk.Checkpoint()
		if cp == nil {
			t.Fatalf("attempt %d: cancelled BFS produced no checkpoint", attempt)
		}
		spec = cp.ResumeSpec(spec.Deadline * 2)
	}
	for v := uint64(0); v < n; v++ {
		if res.Levels[v] != wantLv[v] {
			t.Fatalf("vertex %d: level %d after %d resumed attempts, reference %d",
				v, res.Levels[v], cancelledAttempts, wantLv[v])
		}
	}
	t.Logf("completed after %d deadline-cancelled attempts", cancelledAttempts)
}

// TestEngineCheckpointRules covers the checkpoint/resume contract edges:
// no checkpoint from clean completions or k-core, and Submit rejecting
// incompatible resume specs.
func TestEngineCheckpointRules(t *testing.T) {
	e, _, n := buildEngine(t, 7, 2, "1d", engine.Options{})
	defer e.Close()

	tk, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	tk.Wait()
	if tk.Checkpoint() != nil {
		t.Error("clean completion produced a checkpoint")
	}

	kc, err := e.Submit(engine.Spec{Algo: engine.AlgoKCore, K: 2})
	if err != nil {
		t.Fatalf("Submit kcore: %v", err)
	}
	kc.Cancel()
	kc.Wait()
	if kc.Checkpoint() != nil {
		t.Error("kcore produced a checkpoint (its state is not resumable)")
	}

	// Incompatible resumes are rejected at validation.
	goodRes := &engine.Result{
		Levels:  make([]uint32, n),
		Parents: make([]graph.Vertex, n),
	}
	cases := map[string]engine.Spec{
		"kcore resume": {Algo: engine.AlgoKCore, K: 2,
			Resume: &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoKCore, K: 2}, Res: &engine.Result{}}},
		"algo mismatch": {Algo: engine.AlgoBFS, Source: 0,
			Resume: &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoCC}, Res: goodRes}},
		"source mismatch": {Algo: engine.AlgoBFS, Source: 1,
			Resume: &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoBFS, Source: 2}, Res: goodRes}},
		"nil state": {Algo: engine.AlgoBFS, Source: 0,
			Resume: &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoBFS}}},
		"wrong graph size": {Algo: engine.AlgoBFS, Source: 0,
			Resume: &engine.Checkpoint{Spec: engine.Spec{Algo: engine.AlgoBFS},
				Res: &engine.Result{Levels: make([]uint32, 1), Parents: make([]graph.Vertex, 1)}}},
	}
	for name, spec := range cases {
		if _, err := e.Submit(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEngineReliableUnderMessageFaults runs the engine with its shared
// mailbox in reliable mode over a transport that drops, duplicates,
// corrupts, and reorders data-plane frames, and requires every concurrent
// query to still produce the exact reference answer with conserved flows.
func TestEngineReliableUnderMessageFaults(t *testing.T) {
	plan := faults.Plan{
		Seed: 0xc4a05,
		Msgs: []faults.MsgRule{
			{From: faults.Wildcard, To: faults.Wildcard, Kind: int(rt.KindMailbox),
				Drop: 0.08, Duplicate: 0.04, Corrupt: 0.04, Reorder: 0.20},
			{From: faults.Wildcard, To: faults.Wildcard, Kind: faults.Wildcard,
				Reorder: 0.10}, // control plane: reorder only (loss not tolerated there)
		},
	}
	e, edges, n := buildEngineFaulty(t, 8, 4, "2d",
		engine.Options{Core: core.Config{Reliable: true, RTOBase: time.Millisecond, RTOMax: 20 * time.Millisecond}}, plan)
	defer e.Close()

	adj := ref.BuildAdj(edges, n)
	wantLv, _ := ref.BFS(adj, 0)
	wantLabels, wantCount := ref.Components(adj)

	bfsTk, err := e.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 0})
	if err != nil {
		t.Fatalf("Submit bfs: %v", err)
	}
	ccTk, err := e.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatalf("Submit cc: %v", err)
	}
	var wg sync.WaitGroup
	for _, tk := range []*engine.Ticket{bfsTk, ccTk} {
		wg.Add(1)
		go func() { defer wg.Done(); tk.Wait() }()
	}
	wg.Wait()

	bres, cres := bfsTk.Wait(), ccTk.Wait()
	if bres.Cancelled || cres.Cancelled {
		t.Fatal("query cancelled under recoverable faults")
	}
	for v := uint64(0); v < n; v++ {
		if bres.Levels[v] != wantLv[v] {
			t.Fatalf("bfs vertex %d: level %d under faults, reference %d", v, bres.Levels[v], wantLv[v])
		}
		if cres.Labels[v] != wantLabels[v] {
			t.Fatalf("cc vertex %d: label %d under faults, reference %d", v, cres.Labels[v], wantLabels[v])
		}
	}
	if cres.Components != wantCount {
		t.Fatalf("cc: %d components under faults, reference %d", cres.Components, wantCount)
	}
	checkFlows(t, bfsTk)
	checkFlows(t, ccTk)

	reg := e.Obs()
	if reg.Counter(obs.FaultInjected("drop")).Value() == 0 {
		t.Fatal("no drops injected; fault plan inert, test proved nothing")
	}
	if reg.PerRank(obs.MBRetransmits, 1).Total() == 0 {
		t.Error("drops injected but no retransmits recorded")
	}
}
