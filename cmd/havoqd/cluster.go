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
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
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
	err = serveUntilSignal(newHTTPServer(cs.handler()), ln)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: cluster drained; served=%d failed=%d\n", cs.served.Load(), cs.failed.Load())
	return nil
}

// coordServer is the coordinator's mode: the front end over cluster-wide
// fan-out, so a degraded cluster sheds load at the front door instead of
// queueing doomed work.
type coordServer struct {
	frontEnd
	c *cluster.Coordinator
	// healWait bounds each recovery-ladder wait for the cluster to go whole.
	healWait time.Duration
}

// newCoordServer assembles the coordinator's mode as o's flags ask.
func newCoordServer(c *cluster.Coordinator, o *options, addr string) *coordServer {
	s := &coordServer{c: c, healWait: o.clusterTimeout, frontEnd: frontEnd{
		plane: traffic.New(trafficConfig(o)), n: c.NumVertices(), retries: o.queryRetries, addr: addr, started: time.Now(),
	}}
	s.exec = ladder(&s.frontEnd, c.Submit, s.retry)
	return s
}

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
	h := s.health()
	h["ok"] = len(missing) == 0
	h["degraded"] = len(missing) > 0
	h["missing_slots"] = missing
	h["cluster"] = true
	h["vertices"] = s.c.NumVertices()
	h["epoch"] = s.c.Epoch()
	writeJSON(w, http.StatusOK, h)
}

// retry is the coordinator's retryable set: a submit refused while degraded,
// or an attempt a worker loss killed. Once the cluster is whole again, within
// healWait, the same spec reruns on the identical rebuilt partitions.
func (s *coordServer) retry(spec engine.Spec, _ *cluster.Query, err error) (engine.Spec, bool) {
	if !errors.Is(err, cluster.ErrClusterDegraded) && !errors.Is(err, cluster.ErrWorkerLost) {
		return spec, false
	}
	fmt.Printf("havoqd: query retry after %v; awaiting heal\n", err)
	return spec, s.c.WaitReady(s.healWait) == nil
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

// refHashes answers specs on the in-process engine over the identical
// deterministic graph and hashes each answer as cluster.HashResult hashes the
// cluster's: what the smoke and chaos drills hold the cluster to, for every
// query type.
func refHashes(o *options, specs []engine.Spec) ([]uint64, error) {
	g, err := havoqgt.GenerateRMAT(o.scale, o.seed, havoqgt.Options{
		Ranks: o.ranks, Topology: o.topo, Simplify: o.simplify,
	})
	if err != nil {
		return nil, err
	}
	e, err := g.StartEngine(havoqgt.EngineOptions{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	hashes := make([]uint64, len(specs))
	for i, spec := range specs {
		t, err := e.Submit(spec)
		if err != nil {
			return nil, err
		}
		hashes[i] = cluster.HashResult(t.Wait())
	}
	return hashes, nil
}

// clusterSmoke is `-smoke -cluster`: boot a real multi-process cluster, run
// every query type in the engine's table through it (those that read a
// source from three), and require the deterministic result hashes to be
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
	var specs []engine.Spec
	for _, a := range engine.Algos() {
		for i := uint64(0); i < 3; i++ {
			spec := engine.Canonical(engine.Spec{Algo: a, Source: graph.Vertex(splitmix64(i*0x9e37+42) % n),
				WeightSeed: i, K: 4, Iters: 8})
			if !slices.Contains(specs, spec) {
				specs = append(specs, spec)
			}
		}
	}
	name := func(spec engine.Spec) string {
		if spec.Source == 0 {
			return string(spec.Algo)
		}
		return fmt.Sprintf("%s(%d)", spec.Algo, spec.Source)
	}

	clusterHashes := make([]uint64, len(specs))
	queries := make([]*cluster.Query, len(specs))
	for i, spec := range specs {
		q, err := lc.c.Submit(spec)
		if err != nil {
			lc.kill()
			return fmt.Errorf("cluster smoke: submit %s: %w", name(spec), err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Wait()
		if err != nil {
			lc.kill()
			return fmt.Errorf("cluster smoke: %s: %w", name(specs[i]), err)
		}
		clusterHashes[i] = cluster.HashResult(res)
	}
	queriesDone := time.Since(start)
	if err := lc.shutdown(); err != nil {
		return fmt.Errorf("cluster smoke: %w", err)
	}

	refHashes, err := refHashes(o, specs)
	if err != nil {
		return err
	}
	bad := 0
	for i, spec := range specs {
		status := "ok"
		if clusterHashes[i] != refHashes[i] {
			status = "MISMATCH"
			bad++
		}
		fmt.Printf("havoqd: cluster smoke: %-12s cluster=%016x in-process=%016x %s\n",
			name(spec), clusterHashes[i], refHashes[i], status)
	}
	if bad > 0 {
		return fmt.Errorf("cluster smoke: %d/%d result hashes diverged from the in-process engine", bad, len(specs))
	}
	fmt.Printf("havoqd: cluster smoke: %d/%d hashes identical across %d processes in %v\n",
		len(specs), len(specs), o.workers+1, queriesDone.Round(time.Millisecond))
	return nil
}
