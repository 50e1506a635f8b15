package main

// Multi-process cluster modes of havoqd.
//
//   havoqd -coordinator -workers 4 -ranks 8 -scale 14      # control plane + HTTP
//   havoqd -join host:7642 -workers 4 -ranks 8 -scale 14   # one worker process
//
// The coordinator seals after -workers joins, broadcasts the layout, and then
// serves POST /query over HTTP exactly like the single-process server —
// queries fan out to every worker and assemble from master-range partials.

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"havoqgt/internal/cluster"
	"havoqgt/internal/engine"
	"havoqgt/internal/traffic"
)

// clusterCfg maps the shared command-line flags onto the cluster contract.
// Every process of one cluster is given the same graph and plane flags, so
// the join-time checksum mismatches only when an operator launched divergent
// processes.
func clusterCfg(o *options) cluster.ClusterConfig {
	return cluster.ClusterConfig{
		Workers:     o.workers,
		Ranks:       o.ranks,
		Scale:       o.scale,
		Seed:        o.seed,
		Topology:    o.topo,
		Reliable:    o.engine.Reliable,
		Simplify:    o.simplify,
		MaxInFlight: o.engine.MaxInFlight,
		Heartbeat:   o.heartbeat,
		Liveness:    o.liveness,
	}
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
		plane: traffic.New(o.traffic), n: c.NumVertices(), retries: o.queryRetries, addr: addr, started: time.Now(),
	}}
	s.exec = ladder(&s.frontEnd, func(spec engine.Spec) (*cluster.Query, error) {
		spec.Deadline = cmp.Or(spec.Deadline, o.engine.DefaultDeadline) // deadline_ms 0: the server default
		return c.Submit(spec)
	}, s.retry)
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
