// Command havoqd serves graph queries over HTTP from one resident
// partitioned graph. Instead of paying partitioning and machine start-up per
// traversal, the graph is built (or loaded) once, a multi-query engine is
// attached, and every POST /query becomes an independently tagged traversal
// interleaved with all others on the shared message plane.
//
// Usage:
//
//	havoqd -scale 14 -ranks 8 -addr :8642               # serve until SIGTERM
//	havoqd -in graph.hvqg -ranks 8                      # serve a graph file
//	havoqd -mem-budget 0.125 -scale 14 -ranks 8         # serve with 1/8 of edges resident
//
// cluster.go has the multi-process modes (-coordinator, -join). havoqd times
// nothing: bench/ is the benchmark (bash bench/run.sh). Its end-to-end checks
// are tests that run it as a child process (process_test.go, and
// internal/cluster's TestKillAndRejoin).
//
// Endpoints:
//
//	POST /query   {"algo":"bfs|bfs_do|sssp|cc|kcore|pagerank|triangles","source":0,
//	               "weight_seed":1,"k":2,"iters":0,"deadline_ms":0,"full":false}
//	GET  /healthz liveness + serve counters
//	GET  /stats   full observability snapshot (transport/mailbox/termination/engine)
//
// On SIGTERM or SIGINT the server stops accepting connections, drains the
// in-flight queries, closes the engine, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"havoqgt"
	"havoqgt/internal/graphio"
	"havoqgt/internal/traffic"
)

// options is what havoqd's flags set; they write the subsystem configs
// directly.
type options struct {
	addr string

	in       string
	scale    uint
	seed     uint64
	ranks    int
	topo     string
	simplify bool

	engine       havoqgt.EngineOptions
	queryRetries int
	traffic      traffic.Config // the front-door plane (internal/traffic; see server.go)
	simLatency   time.Duration
	mem          havoqgt.MemoryConfig // out-of-core serving

	// Cluster modes (see cluster.go and internal/cluster).
	coordinator    bool
	join           string
	workers        int
	slot           int
	meshAddr       string
	clusterAddr    string
	clusterTimeout time.Duration
	heartbeat      time.Duration
	liveness       time.Duration
	joinRetry      time.Duration
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// newFlagSet registers every havoqd flag on o. TestFlagSurface pins the
// names, so adding or removing one is a reviewed diff.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("havoqd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8642", "listen address")
	fs.StringVar(&o.in, "in", "", "graph file to serve (.hvqg); empty generates an RMAT graph instead")
	fs.UintVar(&o.scale, "scale", 14, "log2 vertex count for the generated graph")
	fs.Uint64Var(&o.seed, "seed", 1, "generator seed")
	fs.IntVar(&o.ranks, "ranks", 8, "number of simulated ranks")
	fs.StringVar(&o.topo, "topo", "2d", "mailbox routing topology: 1d | 2d | 3d")
	fs.BoolVar(&o.simplify, "simplify", true, "remove self loops and duplicate edges (required for kcore queries)")
	fs.IntVar(&o.engine.MaxInFlight, "max-in-flight", 8, "concurrently executing queries")
	fs.IntVar(&o.engine.MaxQueue, "max-queue", 64, "queries waiting for an in-flight slot before rejection")
	fs.DurationVar(&o.engine.DefaultDeadline, "deadline", 0, "default per-query deadline (0 = none)")
	fs.IntVar(&o.queryRetries, "query-retries", 2, "server-side retries per query: checkpoint resumes of deadline-expired queries, or (-coordinator) reruns after a cluster heal")
	fs.BoolVar(&o.engine.Reliable, "reliable", false, "run the engine's message plane with acked, retransmitted delivery")
	fs.Float64Var(&o.traffic.Quota.Rate, "tenant-rate", 200, "sustained per-tenant request rate (req/s) for quota admission")
	fs.Float64Var(&o.traffic.Quota.Burst, "tenant-burst", 0, "per-tenant burst capacity (0 = 2x tenant-rate)")
	fs.DurationVar(&o.traffic.Quota.Tick, "quota-tick", 100*time.Millisecond, "batched quota refill period")
	fs.Int64Var(&o.traffic.CacheBytes, "cache-bytes", 0, "result cache capacity in bytes (0 = 64 MiB, negative disables)")
	fs.DurationVar(&o.simLatency, "sim-latency", 0, "simulated per-message interconnect latency (0 = instantaneous transport)")
	fs.Float64Var(&o.mem.ResidentFraction, "mem-budget", 1, "resident fraction of adjacency data kept in DRAM, (0,1]; <1 serves out of core")
	fs.IntVar(&o.mem.PageSize, "mem-page", 0, "out-of-core cache page size in bytes (0 = 4096)")
	fs.DurationVar(&o.mem.DeviceLatency, "mem-latency", 0, "modeled NVRAM read latency for out-of-core mode (0 = 25µs)")
	fs.IntVar(&o.mem.DeviceQueueDepth, "mem-queue-depth", 0, "modeled NVRAM queue depth for out-of-core mode (0 = 64)")
	fs.StringVar(&o.mem.Dir, "mem-dir", "", "back out-of-core adjacency with real files under this directory instead of simulated NVRAM")
	fs.BoolVar(&o.coordinator, "coordinator", false, "run as a cluster coordinator: wait for -workers joins, then serve queries")
	fs.StringVar(&o.join, "join", "", "run as a cluster worker joining the coordinator at this address")
	fs.IntVar(&o.workers, "workers", 4, "worker processes in the cluster")
	fs.IntVar(&o.slot, "slot", -1, "explicit worker slot for -join (-1 = coordinator-assigned)")
	fs.StringVar(&o.meshAddr, "mesh-addr", "", "data-plane listen address for -join (default 127.0.0.1:0)")
	fs.StringVar(&o.clusterAddr, "cluster-addr", "127.0.0.1:7642", "control-plane listen address for -coordinator")
	fs.DurationVar(&o.clusterTimeout, "cluster-timeout", 5*time.Minute, "with -coordinator: bound on cluster formation, and on each wait for a heal before a query is retried")
	fs.DurationVar(&o.heartbeat, "heartbeat", 500*time.Millisecond, "coordinator ping spacing on worker control connections")
	fs.DurationVar(&o.liveness, "liveness", 5*time.Second, "worker silence after which the coordinator declares it dead (min 2x -heartbeat)")
	fs.DurationVar(&o.joinRetry, "join-retry", 0, "with -join: keep retrying a refused join for this long (a restarted worker must out-wait the failure detector); also re-join after eviction")
	return fs
}

// mode is one of havoqd's processes.
type mode uint8

const (
	single mode = 1 << iota // serve one resident graph (the default)
	coord                   // -coordinator
	worker                  // -join
)

func (m mode) String() string {
	return map[mode]string{single: "single-process havoqd", coord: "-coordinator", worker: "-join"}[m]
}

// mode is the process o's flags ask for.
func (o *options) mode() mode {
	switch {
	case o.join != "":
		return worker
	case o.coordinator:
		return coord
	}
	return single
}

// readBy names the flags each set of modes reads. A cluster has no graph
// file, no out-of-core pager and no simulated latency, and a worker has no
// front door: the coordinator owns admission, deadlines and the traffic
// plane. The mode flags themselves are read in every mode, to pick it.
var readBy = map[mode]string{
	single | coord | worker: "coordinator join scale seed ranks topo simplify max-in-flight reliable",
	single | coord:          "addr deadline query-retries tenant-rate tenant-burst quota-tick cache-bytes",
	single:                  "in max-queue sim-latency mem-budget mem-page mem-latency mem-queue-depth mem-dir",
	coord:                   "cluster-addr cluster-timeout heartbeat liveness",
	coord | worker:          "workers",
	worker:                  "slot mesh-addr join-retry",
}

// checkModes rejects -join with -coordinator, which are different processes,
// a negative -deadline, which the engine would refuse every query for, and
// any flag set on fs's command line that the mode does not read, so that
// run's switch never reaches a mode that builds a graph and listens until
// signalled with part of what was asked for dropped.
func checkModes(fs *flag.FlagSet, o *options) error {
	switch {
	case o.join != "" && o.coordinator:
		return errors.New("-join and -coordinator are different processes; give one")
	case o.engine.DefaultDeadline < 0:
		return errors.New("-deadline must not be negative")
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		for modes, names := range readBy {
			if m := o.mode(); err == nil && modes&m == 0 && slices.Contains(strings.Fields(names), f.Name) {
				err = fmt.Errorf("%s does not read -%s", m, f.Name)
			}
		}
	})
	return err
}

func run(args []string) int {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := checkModes(fs, &o); err != nil {
		fmt.Fprintf(os.Stderr, "havoqd: %v\n", err)
		return 2
	}

	var err error
	switch o.mode() {
	case worker:
		err = runClusterWorker(&o)
	case coord:
		err = runClusterCoordinator(&o)
	default:
		err = serve(&o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "havoqd: %v\n", err)
		return 1
	}
	return 0
}

// memBanner describes the out-of-core set-up -mem-* asks for. A zero
// -mem-latency selects the device's own default, so it prints as "default",
// not as a 0s device that does not exist; with -mem-dir there is no modeled
// device at all.
func memBanner(mem havoqgt.MemoryConfig) string {
	device := "files under " + mem.Dir
	if mem.Dir == "" {
		latency := "default"
		if mem.DeviceLatency > 0 {
			latency = mem.DeviceLatency.String()
		}
		device = "simulated device, latency " + latency
	}
	return fmt.Sprintf("out-of-core: resident fraction %.4g (%s)", mem.ResidentFraction, device)
}

// buildGraph loads or generates the resident graph.
func buildGraph(o *options) (*havoqgt.Graph, error) {
	opts := havoqgt.Options{Ranks: o.ranks, Topology: o.topo, Simplify: o.simplify}
	if o.in != "" {
		h, edges, err := graphio.ReadFile(o.in)
		if err != nil {
			return nil, err
		}
		opts.Undirect = true
		return havoqgt.NewGraph(edges, h.NumVertices, opts)
	}
	return havoqgt.GenerateRMAT(o.scale, o.seed, opts)
}

func serve(o *options) error {
	start := time.Now()
	g, err := buildGraph(o)
	if err != nil {
		return err
	}
	if o.simLatency > 0 {
		g.SetSimLatency(o.simLatency)
	}
	if o.mem.ResidentFraction < 1 {
		if err := g.SetMemoryBudget(o.mem); err != nil {
			return err
		}
		fmt.Println("havoqd: " + memBanner(o.mem))
	}
	e, err := g.StartEngine(o.engine)
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: graph ready in %v: vertices=%d edges=%d ranks=%d topo=%s\n",
		time.Since(start).Round(time.Millisecond), g.NumVertices(), g.NumEdges(), g.Ranks(), o.topo)

	s := newServer(g, e, o)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		s.close()
		e.Close()
		return err
	}
	s.addr = ln.Addr().String()
	fmt.Printf("havoqd: listening on %s (max-in-flight=%d max-queue=%d)\n", ln.Addr(), o.engine.MaxInFlight, o.engine.MaxQueue)
	err = serveUntilSignal(newHTTPServer(s.handler()), ln)
	s.close()
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("havoqd: drained; served=%d failed=%d shed=%d\n", s.served.Load(), s.failed.Load(), s.shed.Load())
	return nil
}

// serveUntilSignal serves on ln until SIGTERM or SIGINT, then drains
// gracefully: stop accepting, and let in-flight handlers — and so in-flight
// queries — finish.
func serveUntilSignal(srv *http.Server, ln net.Listener) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("havoqd: signal received; draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
