package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"havoqgt"
	"havoqgt/internal/check"
	"havoqgt/internal/engine"
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
// cluster (separate machines glued by the real TCP mesh) must produce
// byte-identical deterministic results — BFS levels, SSSP distances, CC
// labels — to the single-process engine on the same generated graph.
func TestClusterMatchesInProcess(t *testing.T) {
	check.NoLeaks(t)
	cfg := ClusterConfig{Workers: 2, Ranks: 4, Scale: 9, Seed: 42}
	c, err := NewCoordinator("127.0.0.1:0", cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	errs := startWorkers(t, c, cfg, cfg.Workers)
	if err := c.WaitReady(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	const source, wseed = 3, 7
	qBFS, err := c.Submit(engine.Spec{Algo: engine.AlgoBFS, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	qSSSP, err := c.Submit(engine.Spec{Algo: engine.AlgoSSSP, Source: source, WeightSeed: wseed})
	if err != nil {
		t.Fatal(err)
	}
	qCC, err := c.Submit(engine.Spec{Algo: engine.AlgoCC})
	if err != nil {
		t.Fatal(err)
	}
	qDO, err := c.Submit(engine.Spec{Algo: engine.AlgoBFSDO, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	qPR, err := c.Submit(engine.Spec{Algo: engine.AlgoPageRank, Iters: 8})
	if err != nil {
		t.Fatal(err)
	}
	qTri, err := c.Submit(engine.Spec{Algo: engine.AlgoTriangles})
	if err != nil {
		t.Fatal(err)
	}
	resBFS, err := qBFS.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resSSSP, err := qSSSP.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resCC, err := qCC.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resDO, err := qDO.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resPR, err := qPR.Wait()
	if err != nil {
		t.Fatal(err)
	}
	resTri, err := qTri.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// In-process reference on the identical generated graph.
	g, err := havoqgt.GenerateRMAT(cfg.Scale, cfg.Seed, havoqgt.Options{Ranks: cfg.Ranks})
	if err != nil {
		t.Fatal(err)
	}
	refBFS, err := g.BFS(source)
	if err != nil {
		t.Fatal(err)
	}
	refSSSP, err := g.ShortestPaths(source, wseed)
	if err != nil {
		t.Fatal(err)
	}
	refCC, err := g.Components()
	if err != nil {
		t.Fatal(err)
	}
	refPR, err := g.PageRank(8)
	if err != nil {
		t.Fatal(err)
	}
	refTri, err := g.CountTriangles()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := HashResult(resBFS), HashU32s(refBFS.Levels); got != want {
		t.Errorf("bfs levels hash: cluster %016x, in-process %016x", got, want)
	}
	if got, want := HashResult(resSSSP), HashU64s(refSSSP.Distances); got != want {
		t.Errorf("sssp dist hash: cluster %016x, in-process %016x", got, want)
	}
	if got, want := HashResult(resCC), HashVertices(refCC.Labels); got != want {
		t.Errorf("cc labels hash: cluster %016x, in-process %016x", got, want)
	}
	if resCC.Components != refCC.Count {
		t.Errorf("components: cluster %d, in-process %d", resCC.Components, refCC.Count)
	}
	if got, want := HashResult(resDO), HashU32s(refBFS.Levels); got != want {
		t.Errorf("bfs_do levels hash: cluster %016x, in-process top-down %016x", got, want)
	}
	if got, want := HashResult(resPR), HashU64s(refPR.Ranks); got != want {
		t.Errorf("pagerank hash: cluster %016x, in-process %016x", got, want)
	}
	if resTri.Triangles != refTri {
		t.Errorf("triangles: cluster %d, in-process %d", resTri.Triangles, refTri)
	}
	if resBFS.Waves == 0 {
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

// TestAddPartialRefusesMisfits feeds result partials to a query over two
// workers on 16 vertices. One that does not fit the query — a vertex range
// outside [0, n), inverted or overlapping another worker's, an array the
// query type does not fill or of the wrong length, a second report from one
// slot — must fail the query with an error naming the sender's slot: never
// panic the connection goroutine. Partials that fit one by one but leave
// part of the range unreported fail the query at completion: it never
// assembles a result with a hole in it.
func TestAddPartialRefusesMisfits(t *testing.T) {
	const n = 16
	type partial struct {
		slot int
		m    msg
	}
	levels := func(lo, hi uint64) msg { return msg{Lo: lo, Hi: hi, Levels: make([]uint32, hi-lo)} }
	for _, tc := range []struct {
		name     string
		algo     engine.Algo
		partials []partial
		refusal  string // in the query's error; "": the query assembles
	}{
		{"fits", engine.AlgoBFS, []partial{{1, levels(8, 16)}, {0, levels(0, 8)}}, ""},
		{"range past n", engine.AlgoBFS, []partial{{1, levels(8, 100)}}, "refused worker 1's"},
		{"inverted range", engine.AlgoBFS, []partial{{0, msg{Lo: 8, Hi: 4}}}, "refused worker 0's"},
		{"levels on kcore", engine.AlgoKCore, []partial{{0, levels(0, 8)}}, "refused worker 0's"},
		{"labels missing", engine.AlgoCC, []partial{{1, msg{Lo: 8, Hi: 16}}}, "refused worker 1's"},
		{"dist short", engine.AlgoSSSP, []partial{{0, msg{Lo: 0, Hi: 8, Dist: make([]uint64, 4)}}}, "refused worker 0's"},
		{"second report", engine.AlgoBFS, []partial{{0, levels(0, 8)}, {0, levels(0, 8)}}, "refused worker 0's"},
		{"overlapping ranges", engine.AlgoBFS, []partial{{0, levels(0, 8)}, {1, levels(0, 8)}}, "refused worker 1's"},
		{"range gap", engine.AlgoBFS, []partial{{0, levels(0, 4)}, {1, levels(8, 16)}}, "cover 12 of 16 vertices"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Coordinator{n: n, cfg: ClusterConfig{Workers: 2}, queries: map[uint32]*Query{}, sem: make(chan struct{}, 1)}
			c.sem <- struct{}{} // the query's admission slot
			spec := engine.Canonical(engine.Spec{Algo: tc.algo, K: 2})
			q := &Query{c: c, id: 1, spec: spec, res: engine.NewResult(spec, n),
				spans: make([]span, 2), pending: 2, done: make(chan struct{})}
			q.res.Parents = nil
			c.queries[q.id] = q
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
