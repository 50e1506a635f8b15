package main

// Multi-process cluster modes of havoqd.
//
//   havoqd -coordinator -workers 4 -ranks 8 -scale 14      # control plane + HTTP
//   havoqd -join host:7642 -workers 4 -ranks 8 -scale 14   # one worker process
//   havoqd -smoke -cluster -workers 4 -ranks 4 -scale 12   # spawn a local cluster,
//                                                          # diff hashes vs in-process
//   havoqd -chaos -cluster -workers 4 -ranks 4 -scale 11   # kill -9 workers mid-query
//                                                          # (chaos.go)
//
// The coordinator seals after -workers joins, broadcasts the layout, and then
// serves POST /query over HTTP exactly like the single-process server —
// queries fan out to every worker and assemble from master-range partials.
// The -cluster smoke and chaos modes spawn real OS processes (this binary
// with -join) on localhost, so the bytes genuinely cross the kernel's TCP
// stack; worker output lands in cluster-worker-N.log for post-mortems.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"havoqgt"
	"havoqgt/internal/cluster"
	"havoqgt/internal/engine"
	"havoqgt/internal/graph"
	"havoqgt/internal/traffic"
	"havoqgt/internal/xrand"
)

// clusterCfg maps the shared command-line flags onto the cluster contract.
// Spawned workers receive exactly these flags back (see workerArgs), so the
// join-time checksum can only mismatch when an operator genuinely launched
// divergent processes.
func clusterCfg(o *options) cluster.ClusterConfig {
	return cluster.ClusterConfig{
		Workers:     o.workers,
		Ranks:       o.ranks,
		Scale:       o.scale,
		Seed:        o.seed,
		Topology:    o.topo,
		Reliable:    o.reliable,
		Simplify:    o.simplify,
		MaxInFlight: o.maxInFlight,
		Heartbeat:   o.heartbeat,
		Liveness:    o.liveness,
	}
}

// workerArgs rebuilds the argv a spawned worker needs to checksum-match us.
func workerArgs(o *options, coordAddr string, slot int) []string {
	args := []string{
		"-join", coordAddr,
		"-slot", fmt.Sprint(slot),
		"-workers", fmt.Sprint(o.workers),
		"-ranks", fmt.Sprint(o.ranks),
		"-scale", fmt.Sprint(o.scale),
		"-seed", fmt.Sprint(o.seed),
		"-topo", o.topo,
		"-max-in-flight", fmt.Sprint(o.maxInFlight),
		"-simplify=" + fmt.Sprint(o.simplify),
		"-reliable=" + fmt.Sprint(o.reliable),
	}
	if o.joinRetry > 0 {
		args = append(args, "-join-retry", o.joinRetry.String())
	}
	return args
}

// runClusterWorker is the -join mode: one worker process hosting its rank
// window until the coordinator orders shutdown. With -join-retry, an evicted
// worker (heartbeat lapse on a live process) re-joins as a fresh member
// instead of dying: its old epoch is fenced out anyway, so the only useful
// move is a clean slate.
func runClusterWorker(o *options) error {
	logf := func(format string, args ...any) {
		fmt.Printf("havoqd: "+format+"\n", args...)
	}
	for {
		err := cluster.RunWorker(cluster.WorkerOptions{
			Coordinator: o.join,
			Config:      clusterCfg(o),
			Slot:        o.slot,
			MeshAddr:    o.meshAddr,
			JoinRetry:   o.joinRetry,
			Logf:        logf,
		})
		if errors.Is(err, cluster.ErrEvicted) && o.joinRetry > 0 {
			logf("evicted by coordinator; re-joining as a fresh worker")
			continue
		}
		return err
	}
}

// runClusterCoordinator is the -coordinator mode: bind the control plane,
// wait for the workers, then serve queries over HTTP until SIGTERM.
func runClusterCoordinator(o *options) error {
	logf := func(format string, args ...any) {
		fmt.Printf("havoqd: "+format+"\n", args...)
	}
	c, err := cluster.NewCoordinator(o.clusterAddr, clusterCfg(o), logf)
	if err != nil {
		return err
	}
	// Bound addresses go to stdout first thing so ":0" deployments (tests,
	// orchestrators) can scrape them before the cluster even forms.
	fmt.Printf("havoqd: coordinator control plane on %s\n", c.Addr())

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		c.Close()
		return err
	}
	fmt.Printf("havoqd: listening on %s (cluster: %d workers, %d ranks)\n", ln.Addr(), o.workers, o.ranks)

	if err := c.WaitReady(o.clusterTimeout); err != nil {
		ln.Close()
		c.Close()
		return err
	}
	fmt.Printf("havoqd: cluster ready: %d vertices across %d workers\n", c.NumVertices(), o.workers)

	cs := newCoordServer(c, o, ln.Addr().String())
	defer cs.close()
	srv := &http.Server{
		Handler:           cs.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		c.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("havoqd: signal received; draining cluster")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		c.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := c.Close(); err != nil {
		return err
	}
	fmt.Printf("havoqd: cluster drained; served=%d failed=%d\n", cs.served.Load(), cs.failed.Load())
	return nil
}

// coordServer is the coordinator's HTTP face: the same /query contract as
// the single-process server, backed by cluster-wide fan-out and fronted by
// the same traffic plane — tenant quota admission, versioned result cache,
// and hot-query collapsing — so a degraded cluster sheds load at the front
// door instead of queueing doomed work.
type coordServer struct {
	c *cluster.Coordinator
	// plane is the front-door admission layer (internal/traffic), identical
	// to the single-process server's.
	plane *traffic.Plane
	// retries bounds the server-side recovery ladder: how many times a query
	// killed by a worker loss (or refused while degraded) is retried after
	// waiting for the cluster to heal.
	retries int
	// healWait bounds each recovery-ladder wait for the cluster to go whole.
	healWait time.Duration
	addr     string // resolved HTTP listen address
	served   atomic.Uint64
	failed   atomic.Uint64
	shed     atomic.Uint64
	retried  atomic.Uint64
	started  time.Time
}

func newCoordServer(c *cluster.Coordinator, o *options, addr string) *coordServer {
	return &coordServer{
		c:        c,
		plane:    traffic.New(trafficConfig(o)),
		retries:  o.queryRetries,
		healWait: o.clusterTimeout,
		addr:     addr,
		started:  time.Now(),
	}
}

// close releases the traffic plane's background resources.
func (s *coordServer) close() { s.plane.Close() }

func (s *coordServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports cluster wholeness: a degraded cluster stays alive
// (the process is healthy, queries shed typed) but flips ok=false and lists
// the dead-or-healing slots so orchestrators and operators see exactly what
// is missing.
func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	missing := s.c.Missing()
	if missing == nil {
		missing = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            len(missing) == 0,
		"degraded":      len(missing) > 0,
		"missing_slots": missing,
		"addr":          s.addr,
		"cluster":       true,
		"vertices":      s.c.NumVertices(),
		"epoch":         s.c.Epoch(),
		"uptime_ms":     time.Since(s.started).Milliseconds(),
		"served":        s.served.Load(),
		"failed":        s.failed.Load(),
		"shed":          s.shed.Load(),
		"retried":       s.retried.Load(),
	})
}

// collapseKey mirrors the single-process server's cache/collapse identity.
// The cluster graph is immutable for the process lifetime — a heal rebuilds
// the identical deterministic partitions — so the version is constant and
// cached results stay valid across worker deaths.
func (s *coordServer) collapseKey(req *queryRequest) traffic.Key {
	return traffic.Key{
		Algo:       req.Algo,
		Source:     req.Source,
		WeightSeed: req.WeightSeed,
		K:          req.K,
		Iters:      req.Iters,
		Full:       req.Full,
		DeadlineMS: req.DeadlineMS,
		Version:    1,
	}
}

// execute runs one cluster query to completion, climbing the recovery
// ladder on self-healing failures: a submit refused while degraded or a
// query killed by a worker loss waits for the heal (bounded by healWait) and
// retries, up to s.retries times. Deterministic partitions make the retry
// transparent — the healed cluster returns bit-identical results.
func (s *coordServer) execute(ctx context.Context, req *queryRequest) ([]byte, error) {
	spec := engine.Spec{
		Algo:       engine.Algo(req.Algo),
		Source:     graph.Vertex(req.Source),
		WeightSeed: req.WeightSeed,
		K:          req.K,
		Iters:      req.Iters,
	}
	if req.DeadlineMS > 0 {
		spec.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	attempts := s.retries
	retry := func(err error) bool {
		if attempts <= 0 || ctx.Err() != nil {
			return false
		}
		attempts--
		s.retried.Add(1)
		fmt.Printf("havoqd: query retry after %v; awaiting heal\n", err)
		return s.c.WaitReady(s.healWait) == nil
	}
	start := time.Now()
	for {
		q, err := s.c.Submit(spec)
		if err != nil {
			if errors.Is(err, cluster.ErrClusterDegraded) && retry(err) {
				continue
			}
			return nil, err
		}
		select {
		case <-q.Done():
		case <-ctx.Done():
			// Every collapsed waiter abandoned: cancel the fan-out and wait
			// for the workers' monotone partials to drain back.
			q.Cancel()
			<-q.Done()
		}
		res, err := q.Wait()
		if err != nil {
			if errors.Is(err, cluster.ErrWorkerLost) && retry(err) {
				continue
			}
			return nil, err
		}
		if res.Cancelled {
			return nil, errTimeoutCancelled
		}

		resp := queryResponse{ID: q.ID(), Algo: req.Algo, ElapsedMS: float64(time.Since(start).Microseconds()) / 1e3}
		switch {
		case res.Levels != nil:
			for _, l := range res.Levels {
				if l != havoqgt.Unreached {
					resp.Reached++
					if l > resp.MaxLevel {
						resp.MaxLevel = l
					}
				}
			}
			if req.Full {
				resp.Levels = res.Levels
			}
		case res.Dist != nil:
			for _, d := range res.Dist {
				if d != havoqgt.UnreachedDistance {
					resp.Reached++
					if d > resp.MaxDist {
						resp.MaxDist = d
					}
				}
			}
			if req.Full {
				resp.Distances = res.Dist
			}
		case res.Labels != nil:
			resp.Components = res.Components
			if req.Full {
				resp.Labels = res.Labels
			}
		case res.InCore != nil:
			resp.CoreSize = res.CoreSize
			if req.Full {
				resp.InCore = res.InCore
			}
		case res.Ranks != nil:
			resp.Iters = req.Iters
			if resp.Iters == 0 {
				resp.Iters = havoqgt.DefaultPageRankIters
			}
			if req.Full {
				resp.Ranks = res.Ranks
			}
		default: // triangles: scalar-only result
			resp.Triangles = res.Triangles
		}
		return json.Marshal(resp)
	}
}

// validate rejects malformed parameters before any quota or cluster work.
func (s *coordServer) validate(req *queryRequest) error {
	switch req.Algo {
	case "bfs", "bfs_do", "sssp":
		if req.Source >= s.c.NumVertices() {
			return fmt.Errorf("source %d out of range (n=%d)", req.Source, s.c.NumVertices())
		}
	case "cc", "triangles":
	case "kcore":
		if req.K < 1 {
			return fmt.Errorf("kcore needs k >= 1")
		}
	case "pagerank":
		if req.Iters > havoqgt.MaxPageRankIters {
			return fmt.Errorf("pagerank iters %d exceeds max %d", req.Iters, havoqgt.MaxPageRankIters)
		}
	default:
		return fmt.Errorf("unknown algo %q (want bfs|bfs_do|sssp|cc|kcore|pagerank|triangles)", req.Algo)
	}
	return nil
}

// errTimeoutCancelled marks a cluster query that drained as cancelled
// (deadline or waiter abandonment) rather than failing typed.
var errTimeoutCancelled = errors.New("query cancelled (deadline or client disconnect)")

func (s *coordServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only", 0)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failed.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Sprintf("request body over %d bytes", tooBig.Limit), 0)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad request body: "+err.Error(), 0)
		return
	}

	// Front door, step 1: tenant quota — one token-bucket decrement; a shed
	// request costs the cluster nothing.
	if err := s.plane.Admit(tenantID(r)); err != nil {
		s.shed.Add(1)
		retryAfter := 1
		var qe *traffic.ErrQuotaExceeded
		if errors.As(err, &qe) {
			if sec := int(qe.RetryAfter / time.Second); sec > retryAfter {
				retryAfter = sec
			}
		}
		writeError(w, http.StatusTooManyRequests, codeQuotaExceeded, err.Error(), retryAfter)
		return
	}

	if err := s.validate(&req); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error(), 0)
		return
	}

	// Steps 2+3: versioned result cache, then hot-query collapsing; misses
	// run one shared cluster execution with the recovery ladder inside.
	start := time.Now()
	body, outcome, err := s.plane.Do(r.Context(), s.collapseKey(&req), func(ctx context.Context) ([]byte, error) {
		return s.execute(ctx, &req)
	})
	if err != nil {
		if r.Context().Err() != nil {
			s.failed.Add(1)
			return
		}
		switch {
		case errors.Is(err, cluster.ErrClusterDegraded), errors.Is(err, cluster.ErrWorkerLost):
			// Self-healing in progress and the retry budget ran out: shed
			// with the structured schema so clients back off and retry once
			// the cluster is whole.
			s.shed.Add(1)
			writeError(w, http.StatusServiceUnavailable, codeClusterDegraded, err.Error(), 5)
		case errors.Is(err, errTimeoutCancelled):
			s.failed.Add(1)
			writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error(), 1)
		default:
			s.failed.Add(1)
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error(), 0)
		}
		return
	}

	s.served.Add(1)
	s.plane.ObserveLatency(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Traffic-Outcome", outcome.String())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// localCluster is a coordinator plus its spawned local worker processes.
type localCluster struct {
	c     *cluster.Coordinator
	procs []*exec.Cmd
}

// startLocalCluster boots an in-process coordinator and -workers real OS
// worker processes (this binary, re-executed with -join) on localhost.
// Worker output goes to cluster-worker-N.log.
func startLocalCluster(o *options) (*localCluster, error) {
	c, err := cluster.NewCoordinator("127.0.0.1:0", clusterCfg(o), func(format string, args ...any) {
		fmt.Printf("havoqd: "+format+"\n", args...)
	})
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		c.Close()
		return nil, err
	}
	lc := &localCluster{c: c}
	for slot := 0; slot < o.workers; slot++ {
		logPath := fmt.Sprintf("cluster-worker-%d.log", slot)
		logFile, err := os.Create(logPath)
		if err != nil {
			lc.kill()
			return nil, err
		}
		cmd := exec.Command(self, workerArgs(o, c.Addr(), slot)...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			logFile.Close()
			lc.kill()
			return nil, fmt.Errorf("spawn worker %d: %w", slot, err)
		}
		logFile.Close() // the child holds its own descriptor
		lc.procs = append(lc.procs, cmd)
	}
	if err := c.WaitReady(o.clusterTimeout); err != nil {
		lc.kill()
		return nil, err
	}
	return lc, nil
}

// shutdown closes the coordinator (workers exit on the shutdown broadcast)
// and reaps the worker processes.
func (lc *localCluster) shutdown() error {
	lc.c.Close()
	var firstErr error
	for i, cmd := range lc.procs {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("worker %d: %w (see cluster-worker-%d.log)", i, err, i)
		}
	}
	return firstErr
}

// kill hard-stops everything (error paths only).
func (lc *localCluster) kill() {
	lc.c.Close()
	for _, cmd := range lc.procs {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// armWatchdog hard-aborts the process if a -cluster run wedges: CI must get
// a loud timeout with logs on disk, never a silent 6-hour hang.
func armWatchdog(o *options, what string) *time.Timer {
	return time.AfterFunc(o.clusterTimeout, func() {
		fmt.Fprintf(os.Stderr, "havoqd: %s: WATCHDOG: no completion within %v, aborting\n", what, o.clusterTimeout)
		os.Exit(124)
	})
}

// splitmix64 draws the smoke and chaos drills' deterministic sources.
func splitmix64(x uint64) uint64 { return xrand.Mix64(x + 0x9e3779b97f4a7c15) }

// clusterSmoke is `-smoke -cluster`: boot a real multi-process cluster, run
// BFS/SSSP/CC through it, and require the deterministic result hashes to be
// identical to the in-process engine on the same graph.
func clusterSmoke(o *options) error {
	watchdog := armWatchdog(o, "cluster smoke")
	defer watchdog.Stop()

	fmt.Printf("havoqd: cluster smoke: %d workers x %d ranks, scale-%d rmat\n",
		o.workers, o.ranks/o.workers, o.scale)
	start := time.Now()
	lc, err := startLocalCluster(o)
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: cluster smoke: cluster ready in %v\n", time.Since(start).Round(time.Millisecond))

	n := lc.c.NumVertices()
	type smokeCase struct {
		name string
		spec engine.Spec
	}
	var cases []smokeCase
	for i := 0; i < 3; i++ {
		src := graph.Vertex(splitmix64(uint64(i)*0x9e37+42) % n)
		cases = append(cases,
			smokeCase{fmt.Sprintf("bfs(%d)", src), engine.Spec{Algo: engine.AlgoBFS, Source: src}},
			smokeCase{fmt.Sprintf("bfs_do(%d)", src), engine.Spec{Algo: engine.AlgoBFSDO, Source: src}},
			smokeCase{fmt.Sprintf("sssp(%d)", src), engine.Spec{Algo: engine.AlgoSSSP, Source: src, WeightSeed: uint64(i)}},
		)
	}
	cases = append(cases,
		smokeCase{"cc", engine.Spec{Algo: engine.AlgoCC}},
		smokeCase{"pagerank", engine.Spec{Algo: engine.AlgoPageRank, Iters: 8}},
		smokeCase{"triangles", engine.Spec{Algo: engine.AlgoTriangles}},
	)

	clusterHashes := make([]uint64, len(cases))
	queries := make([]*cluster.Query, len(cases))
	for i, tc := range cases {
		q, err := lc.c.Submit(tc.spec)
		if err != nil {
			lc.kill()
			return fmt.Errorf("cluster smoke: submit %s: %w", tc.name, err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Wait()
		if err != nil {
			lc.kill()
			return fmt.Errorf("cluster smoke: %s: %w", cases[i].name, err)
		}
		clusterHashes[i] = cluster.HashResult(res)
	}
	queriesDone := time.Since(start)
	if err := lc.shutdown(); err != nil {
		return fmt.Errorf("cluster smoke: %w", err)
	}

	// In-process reference: the same graph, the same queries, through the
	// single-process engine.
	g, err := havoqgt.GenerateRMAT(o.scale, o.seed, havoqgt.Options{
		Ranks: o.ranks, Topology: o.topo, Simplify: o.simplify,
	})
	if err != nil {
		return err
	}
	refHashes := make([]uint64, len(cases))
	for i, tc := range cases {
		switch tc.spec.Algo {
		case engine.AlgoBFS, engine.AlgoBFSDO:
			// bfs_do's levels must hash-match the plain top-down BFS: same
			// fixpoint, different traversal schedule.
			res, err := g.BFS(tc.spec.Source)
			if err != nil {
				return err
			}
			refHashes[i] = cluster.HashU32s(res.Levels)
		case engine.AlgoSSSP:
			res, err := g.ShortestPaths(tc.spec.Source, tc.spec.WeightSeed)
			if err != nil {
				return err
			}
			refHashes[i] = cluster.HashU64s(res.Distances)
		case engine.AlgoCC:
			res, err := g.Components()
			if err != nil {
				return err
			}
			refHashes[i] = cluster.HashVertices(res.Labels)
		case engine.AlgoPageRank:
			res, err := g.PageRank(tc.spec.Iters)
			if err != nil {
				return err
			}
			refHashes[i] = cluster.HashU64s(res.Ranks)
		case engine.AlgoTriangles:
			count, err := g.CountTriangles()
			if err != nil {
				return err
			}
			refHashes[i] = cluster.HashU64s([]uint64{count})
		}
	}

	bad := 0
	for i := range cases {
		status := "ok"
		if clusterHashes[i] != refHashes[i] {
			status = "MISMATCH"
			bad++
		}
		fmt.Printf("havoqd: cluster smoke: %-12s cluster=%016x in-process=%016x %s\n",
			cases[i].name, clusterHashes[i], refHashes[i], status)
	}
	if bad > 0 {
		return fmt.Errorf("cluster smoke: %d/%d result hashes diverged from the in-process engine", bad, len(cases))
	}
	fmt.Printf("havoqd: cluster smoke: %d/%d hashes identical across %d processes in %v\n",
		len(cases), len(cases), o.workers+1, queriesDone.Round(time.Millisecond))
	return nil
}
