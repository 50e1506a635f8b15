package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
)

// startWorkers launches n worker goroutines against the coordinator and
// returns a channel that yields each worker's exit error.
func startWorkers(t *testing.T, c *Coordinator, cfg ClusterConfig, n int) chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			errs <- RunWorker(WorkerOptions{
				Coordinator: c.Addr(), Config: cfg, Slot: -1, Logf: t.Logf,
			})
		}()
	}
	return errs
}

func drainWorkers(t *testing.T, errs chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("worker exit: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("timeout waiting for worker exit")
		}
	}
}

// TestClusterMatchesInProcess is the core equivalence check: a multi-worker
// cluster (separate machines glued by the real TCP mesh) must produce the
// same deterministic results — every array a query type ships, and its
// total — as the single-process engine on the same generated graph. The
// sampled triangle count holds the cluster to every parameter the query
// reads: a worker that counted every wedge answered the exact count, four
// times the sample.
func TestClusterMatchesInProcess(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 2, Ranks: 4, Scale: 9, Seed: 42, Simplify: true}
	c, err := NewCoordinator("127.0.0.1:0", cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	errs := startWorkers(t, c, cfg, cfg.Workers)
	if err := c.WaitReady(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	const source, wseed = 3, 7
	specs := []engine.Spec{
		{Algo: engine.AlgoBFS, Source: source},
		{Algo: engine.AlgoSSSP, Source: source, WeightSeed: wseed},
		{Algo: engine.AlgoCC},
		{Algo: engine.AlgoBFSDO, Source: source},
		{Algo: engine.AlgoKCore, K: 4},
		{Algo: engine.AlgoPageRank, Iters: 8},
		{Algo: engine.AlgoTriangles},
		{Algo: engine.AlgoTriangles, SampleProb: 0.25, SampleSeed: 3},
	}
	queries := make([]*Query, len(specs))
	for i, spec := range specs {
		if queries[i], err = c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*engine.Result, len(specs))
	for i, q := range queries {
		if got[i], err = q.Wait(); err != nil {
			t.Fatalf("%+v: %v", specs[i], err)
		}
	}

	// In-process reference on the identical generated graph.
	g, err := havoqgt.GenerateRMAT(cfg.Scale, cfg.Seed, havoqgt.Options{Ranks: cfg.Ranks, Simplify: cfg.Simplify})
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.StartEngine(havoqgt.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, spec := range specs {
		tk, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, b := got[i], tk.Wait()
		if !slices.Equal(a.Levels, b.Levels) || !slices.Equal(a.Dist, b.Dist) || !slices.Equal(a.Labels, b.Labels) ||
			!slices.Equal(a.InCore, b.InCore) || !slices.Equal(a.Ranks, b.Ranks) {
			t.Errorf("%+v: the cluster's arrays differ from the in-process engine's", spec)
		}
		if a.Components != b.Components || a.CoreSize != b.CoreSize || a.Triangles != b.Triangles {
			t.Errorf("%+v: cluster totals %d/%d/%d, in-process %d/%d/%d (components/core/triangles)",
				spec, a.Components, a.CoreSize, a.Triangles, b.Components, b.CoreSize, b.Triangles)
		}
		if a.Parents != nil {
			t.Errorf("%+v: the cluster assembled parents, which depend on arrival order", spec)
		}
	}
	if got[0].Waves == 0 {
		t.Error("cluster BFS reported zero termination waves")
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	drainWorkers(t, errs, cfg.Workers)
}

// rawJoin dials the coordinator and performs a hand-rolled join, returning
// the decoded verdict. The connection stays open (caller closes).
func rawJoin(t *testing.T, addr string, join msg) (net.Conn, msg) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(conn).Encode(&join); err != nil {
		t.Fatal(err)
	}
	var reply msg
	if err := json.NewDecoder(conn).Decode(&reply); err != nil {
		t.Fatalf("join verdict: %v", err)
	}
	return conn, reply
}

// TestJoinVersionMismatch: a worker of another protocol version is refused
// at join — an ancient one, and one of the version just before this one
// (its records framed one by one, which this version's peers cannot read).
func TestJoinVersionMismatch(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 1, Ranks: 1, Scale: 5, Seed: 1}
	c, err := NewCoordinator("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	old := joinVersion
	defer func() { joinVersion = old }()
	for _, v := range []string{"havoqd-cluster/0-ancient", "havoqd-cluster/7"} {
		joinVersion = v
		err = RunWorker(WorkerOptions{Coordinator: c.Addr(), Config: cfg, Slot: -1})
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: got %v, want ErrVersionMismatch", v, err)
		}
	}
}

func TestJoinConfigMismatch(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 1, Ranks: 1, Scale: 5, Seed: 1}
	c, err := NewCoordinator("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := cfg
	bad.Seed = 2 // a worker generating a different graph must be refused
	err = RunWorker(WorkerOptions{Coordinator: c.Addr(), Config: bad, Slot: -1})
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("got %v, want ErrConfigMismatch", err)
	}
}

func TestJoinDuplicateSlot(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 2, Ranks: 2, Scale: 5, Seed: 1}
	c, err := NewCoordinator("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn, reply := rawJoin(t, c.Addr(), msg{
		Type: "join", Version: Version, ConfigSum: cfg.Checksum(),
		Slot: 1, MeshAddr: "127.0.0.1:1",
	})
	defer conn.Close()
	if reply.Type != "joined" || reply.Slot != 1 {
		t.Fatalf("first join: %+v", reply)
	}

	err = RunWorker(WorkerOptions{Coordinator: c.Addr(), Config: cfg, Slot: 1})
	if !errors.Is(err, ErrDuplicateSlot) {
		t.Fatalf("got %v, want ErrDuplicateSlot", err)
	}
}

func TestJoinAfterSealed(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 1, Ranks: 1, Scale: 5, Seed: 1}
	c, err := NewCoordinator("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fill the only slot with a hand-rolled join; the cluster seals.
	conn, reply := rawJoin(t, c.Addr(), msg{
		Type: "join", Version: Version, ConfigSum: cfg.Checksum(),
		Slot: -1, MeshAddr: "127.0.0.1:1",
	})
	defer conn.Close()
	if reply.Type != "joined" {
		t.Fatalf("first join refused: %+v", reply)
	}

	err = RunWorker(WorkerOptions{Coordinator: c.Addr(), Config: cfg, Slot: -1})
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("got %v, want ErrSealed", err)
	}
}

// TestCoordinatorDiesBeforeVerdict: the control connection drops before the
// join verdict arrives — the worker must fail typed, not hang or leak.
func TestCoordinatorDiesBeforeVerdict(t *testing.T) {
	check.NoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close() // hang up without a verdict
		}
	}()

	cfg := ClusterConfig{Workers: 1, Ranks: 1, Scale: 5, Seed: 1}
	err = RunWorker(WorkerOptions{Coordinator: ln.Addr().String(), Config: cfg, Slot: -1})
	if !errors.Is(err, ErrCoordinatorDown) {
		t.Fatalf("got %v, want ErrCoordinatorDown", err)
	}
}

// TestCoordinatorDiesMidJoin: the worker joined but the coordinator dies
// before the cluster seals (no layout ever arrives).
func TestCoordinatorDiesMidJoin(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 2, Ranks: 2, Scale: 5, Seed: 1}
	c, err := NewCoordinator("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerOptions{Coordinator: c.Addr(), Config: cfg, Slot: 0})
	}()

	// Wait until the worker's join landed, then kill the coordinator with
	// the second slot still open.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		joined := c.joined
		c.mu.Unlock()
		if joined == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrCoordinatorDown) {
			t.Fatalf("got %v, want ErrCoordinatorDown", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker hung after coordinator death")
	}
}

// TestJoinVerdictPrecedesLayout is a four-worker join storm that forces the
// interleaving the handshake must survive: each early joiner's verdict is
// held back — in the log line the coordinator writes just before sending it
// — until the sealing joiner has logged its own, so the sealer's layout
// broadcast is under way while the earlier verdicts are still unsent. Every
// worker must still read its verdict first: a layout during the handshake
// fails the join.
func TestJoinVerdictPrecedesLayout(t *testing.T) {
	check.NoLeaks(t)
	const workers = 4
	cfg := ClusterConfig{Workers: workers, Ranks: workers, Scale: 6, Seed: 1}
	for round := 0; round < 3; round++ {
		sealed := make(chan struct{})
		logf := func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			var slot int
			if _, err := fmt.Sscanf(line, "cluster: worker %d joined from", &slot); err == nil {
				if slot == workers-1 {
					close(sealed)
				} else {
					<-sealed
					time.Sleep(50 * time.Millisecond) // the sealer's broadcast goes out meanwhile
				}
			}
			t.Log(line)
		}
		c, err := NewCoordinator("127.0.0.1:0", cfg, logf)
		if err != nil {
			t.Fatal(err)
		}
		errs := startWorkers(t, c, cfg, workers)
		ready := make(chan error, 1)
		go func() { ready <- c.WaitReady(30 * time.Second) }()
		running := workers
		select {
		case err = <-ready:
		case err = <-errs:
			running--
			err = fmt.Errorf("a worker exited during formation: %v", err)
		}
		if err != nil {
			t.Errorf("round %d: %v", round, err)
		}
		c.Close()
		drainWorkers(t, errs, running)
		if t.Failed() {
			return
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 1, Ranks: 1, Scale: 5, Seed: 1}
	c, err := NewCoordinator("127.0.0.1:0", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(engine.Spec{Algo: "betweenness"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := c.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: 1 << 20}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := c.Submit(engine.Spec{Algo: engine.AlgoBFSDO, Source: 1 << 20}); err == nil {
		t.Error("out-of-range bfs_do source accepted")
	}
	if _, err := c.Submit(engine.Spec{Algo: engine.AlgoKCore, K: 0}); err == nil {
		t.Error("k=0 kcore accepted")
	}
	if _, err := c.Submit(engine.Spec{Algo: engine.AlgoPageRank, Iters: 1000}); err == nil {
		t.Error("oversized pagerank iteration count accepted")
	}
}

// partial is one worker slot's result message.
type partial struct {
	slot int
	m    msg
}

func levels(lo, hi uint64) msg {
	return msg{Type: "result", Lo: lo, Hi: hi, Part: &engine.Result{Levels: make([]uint32, hi-lo)}}
}

// misfits are result partials for a query over two workers on 16 vertices,
// and why the query refuses them ("": it assembles).
var misfits = []struct {
	name     string
	algo     engine.Algo
	partials []partial
	refusal  string // in the query's error; "": the query assembles
}{
	{"fits", engine.AlgoBFS, []partial{{1, levels(8, 16)}, {0, levels(0, 8)}}, ""},
	{"range past n", engine.AlgoBFS, []partial{{1, levels(8, 100)}}, "refused worker 1's"},
	{"inverted range", engine.AlgoBFS, []partial{{0, msg{Type: "result", Lo: 8, Hi: 4}}}, "refused worker 0's"},
	{"levels on kcore", engine.AlgoKCore, []partial{{0, levels(0, 8)}}, "refused worker 0's"},
	{"labels missing", engine.AlgoCC, []partial{{1, msg{Type: "result", Lo: 8, Hi: 16}}}, "refused worker 1's"},
	{"dist short", engine.AlgoSSSP, []partial{{0, msg{Type: "result", Lo: 0, Hi: 8,
		Part: &engine.Result{Dist: make([]uint64, 4)}}}}, "refused worker 0's"},
	{"parents shipped", engine.AlgoBFS, []partial{{0, msg{Type: "result", Lo: 0, Hi: 8,
		Part: &engine.Result{Levels: make([]uint32, 8), Parents: make([]graph.Vertex, 8)}}}}, "refused worker 0's"},
	{"second report", engine.AlgoBFS, []partial{{0, levels(0, 8)}, {0, levels(0, 8)}}, "refused worker 0's"},
	{"overlapping ranges", engine.AlgoBFS, []partial{{0, levels(0, 8)}, {1, levels(0, 8)}}, "refused worker 1's"},
	{"range gap", engine.AlgoBFS, []partial{{0, levels(0, 4)}, {1, levels(8, 16)}}, "cover 12 of 16 vertices"},
}

// pendingQuery is a query of spec over two workers on n vertices, submitted
// as Coordinator.Submit registers one, with no worker to send it to.
func pendingQuery(spec engine.Spec, n uint64) (*Coordinator, *Query) {
	c := &Coordinator{n: n, cfg: ClusterConfig{Workers: 2}, queries: map[uint32]*Query{}, sem: make(chan struct{}, 1)}
	c.sem <- struct{}{} // the query's admission slot
	q := &Query{c: c, id: 1, spec: spec, res: engine.Part(spec, engine.NewResult(spec, n), 0, n),
		spans: make([]span, 2), pending: 2, done: make(chan struct{})}
	c.queries[q.id] = q
	return c, q
}

// TestAddPartialRefusesMisfits feeds the misfits to their queries. One that
// does not fit the query — a vertex range outside [0, n), inverted or
// overlapping another worker's, an array the query type does not ship or of
// the wrong length, a second report from one slot — must fail the query with
// an error naming the sender's slot: never panic the connection goroutine.
// Partials that fit one by one but leave part of the range unreported fail
// the query at completion: it never assembles a result with a hole in it.
func TestAddPartialRefusesMisfits(t *testing.T) {
	const n = 16
	for _, tc := range misfits {
		t.Run(tc.name, func(t *testing.T) {
			c, q := pendingQuery(engine.Canonical(engine.Spec{Algo: tc.algo, K: 2}), n)
			for _, p := range tc.partials {
				q.addPartial(p.slot, &p.m)
			}
			select {
			case <-q.Done():
			default:
				t.Fatal("query still pending after its partials")
			}
			if len(c.sem) != 0 || len(c.queries) != 0 {
				t.Errorf("finished query holds its admission slot (%d) or registration (%d)", len(c.sem), len(c.queries))
			}
			_, err := q.Wait()
			switch {
			case tc.refusal == "" && err != nil:
				t.Fatalf("fitting partials: %v", err)
			case tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal)):
				t.Fatalf("error %v, want one that says %q", err, tc.refusal)
			}
		})
	}
}

// FuzzResultPartial decodes its bytes as one control-plane result line from
// worker 0 and feeds it, then a fitting partial from worker 1 for vertices
// [8, 16), to a two-worker, 16-vertex query of the fuzz-chosen type. Nothing
// may panic, and a query that assembles without error has every vertex
// covered by exactly one worker and every array its type ships 16 long. The
// seeds are the misfits' partials.
func FuzzResultPartial(f *testing.F) {
	const n = 16
	types := engine.Algos()
	for _, tc := range misfits {
		for _, p := range tc.partials {
			line, err := json.Marshal(&p.m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(slices.Index(types, tc.algo)), line)
		}
	}
	f.Fuzz(func(t *testing.T, algo uint8, line []byte) {
		var m msg
		if json.Unmarshal(line, &m) != nil || m.Type != "result" {
			return
		}
		spec := engine.Canonical(engine.Spec{Algo: types[int(algo)%len(types)], K: 2})
		_, q := pendingQuery(spec, n)
		q.addPartial(0, &m)
		q.addPartial(1, &msg{Type: "result", Lo: n / 2, Hi: n, Part: engine.Part(spec, engine.NewResult(spec, n), n/2, n)})
		select {
		case <-q.Done():
		default:
			t.Fatalf("%s: query still pending after both partials of %q", spec.Algo, line)
		}
		res, err := q.Wait()
		if err != nil {
			return
		}
		var covered [n]int
		for _, s := range q.spans {
			for v := s.lo; v < s.hi; v++ {
				covered[v]++
			}
		}
		for v, k := range covered {
			if k != 1 {
				t.Fatalf("%s: assembled %q with vertex %d covered %d times", spec.Algo, line, v, k)
			}
		}
		// Merge accepts a part over every vertex only if each array the type
		// ships is n long and it carries no other.
		if err := engine.Merge(spec, engine.NewResult(spec, n), res, 0, n); err != nil {
			t.Fatalf("%s: assembled %q into a misfit result: %v", spec.Algo, line, err)
		}
	})
}
