// Package cluster runs the engine across OS processes: a coordinator owns
// rank discovery, partition assignment, global admission, and result
// assembly; workers each host a contiguous window of ranks on an
// rt.NewClusterMachine whose remote edges ride the internal/net TCP mesh.
//
// Two planes, deliberately separate:
//
//   - Control plane (this package): one JSON-lines TCP connection per worker
//     to the coordinator. Carries the join handshake, the sealed cluster
//     layout, query submit/cancel, per-worker partial results, and shutdown.
//     Low rate, latency-insensitive, human-debuggable with nc.
//
//   - Data plane (internal/net): the full worker-to-worker mesh carrying
//     rank-to-rank frames — visitor records, termination waves, collectives.
//     High rate, pooled, FIFO per edge.
//
// The handshake is epoch-fenced: the coordinator mints a cluster epoch at
// startup, hands it to joiners, and the mesh refuses connections from any
// other epoch — a worker from a torn-down cluster cannot inject frames into
// its successor. Joins are validated against the protocol version and a
// checksum of the shared ClusterConfig, so a worker launched with different
// flags (wrong scale, wrong rank count) is refused at join time instead of
// corrupting the run. Engine and mailbox semantics are unchanged: the fault
// transport still interposes at the same rt choke point, and reliable
// delivery rides on top exactly as in-process.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Version names the protocol a worker speaks. Joins from any other version
// are refused with ErrVersionMismatch. It covers the control plane and the
// rank plane alike: every query type's tagged-record format is part of it,
// since a worker that joins with another format decodes its peers' records
// wrong and diverges without an error. Change a format, bump the version.
// Version 4: the partition build replicates the degree table, so DO-BFS and
// cc no longer send degree fragments (DO kind 1); a /3 worker in a /4
// cluster would wait forever for fragments its peers never send, and only
// this refusal turns that hang into ErrVersionMismatch.
// Version 5: PageRank sends dense rounds — one run of (vertex, sum) pairs
// per peer per iteration, and chain records down a split row — instead of
// 23-byte visitors, and a worker of either version misreads the other's.
// Version 6: k-core peels its first round dense — one round record of
// (vertex, count) pairs per peer, and visitors with a kind byte ahead of them
// — instead of a seed visitor per vertex; a /5 worker would read a round
// record as a visitor and never send the round record its peers wait on.
// Version 7: SSSP runs Δ-stepping in counted rounds — one record of (vertex,
// dist, parent) triples per peer per bucket round — instead of 24-byte
// visitors; a /6 worker would read a round record as a visitor and never
// send the round records its peers wait on.
const Version = "havoqd-cluster/7"

// Handshake refusals, typed so workers (and their operators) can tell
// configuration mistakes apart from infrastructure failures. The coordinator
// transmits the matching wire code; Join folds it back into these values, so
// errors.Is works across the process boundary.
var (
	ErrVersionMismatch = errors.New("cluster: protocol version mismatch")
	ErrConfigMismatch  = errors.New("cluster: config checksum mismatch")
	ErrDuplicateSlot   = errors.New("cluster: worker slot already taken")
	ErrSealed          = errors.New("cluster: cluster already sealed")
	// ErrCoordinatorDown reports the control connection dying before (or
	// during) the handshake — the coordinator crashed, was unreachable, or
	// hung up without a verdict.
	ErrCoordinatorDown = errors.New("cluster: coordinator connection lost")
)

// Self-healing errors. Both sentinel targets have a struct carrier so callers
// can errors.Is for the class and errors.As for slot/epoch details.
var (
	// ErrWorkerLost is the class of WorkerLostError: an in-flight query died
	// because a worker process was declared dead mid-execution.
	ErrWorkerLost = errors.New("cluster: worker lost")
	// ErrClusterDegraded is the class of DegradedError: the cluster is not
	// whole (a slot is dead or still healing) and refuses new queries.
	ErrClusterDegraded = errors.New("cluster: degraded")
	// ErrEvicted is returned by RunWorker when the coordinator declared this
	// worker dead (a heartbeat lapse — e.g. a long stall — on a process that
	// is in fact alive). The worker has aborted its queries and torn down;
	// it may re-join as a fresh process.
	ErrEvicted = errors.New("cluster: worker evicted by coordinator")
)

// WorkerLostError fails every query in flight when a worker dies: the victim
// slot and the epoch that died with it.
type WorkerLostError struct {
	Slot  int
	Epoch uint64
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("cluster: worker %d lost (epoch %d): in-flight query aborted", e.Slot, e.Epoch)
}

// Is makes errors.Is(err, ErrWorkerLost) true for the carrier.
func (e *WorkerLostError) Is(target error) bool { return target == ErrWorkerLost }

// DegradedError rejects a submit while the cluster is not whole: the slots
// that are dead or not yet confirmed at the current epoch.
type DegradedError struct {
	Missing []int
	Epoch   uint64
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("cluster: degraded (epoch %d): slots %v dead or unhealed", e.Epoch, e.Missing)
}

// Is makes errors.Is(err, ErrClusterDegraded) true for the carrier.
func (e *DegradedError) Is(target error) bool { return target == ErrClusterDegraded }

// Wire error codes (msg.Code) for the refusals above.
const (
	codeVersion = "version-mismatch"
	codeConfig  = "config-mismatch"
	codeSlot    = "duplicate-slot"
	codeSealed  = "sealed"
)

func codeToErr(code, detail string) error {
	var base error
	switch code {
	case codeVersion:
		base = ErrVersionMismatch
	case codeConfig:
		base = ErrConfigMismatch
	case codeSlot:
		base = ErrDuplicateSlot
	case codeSealed:
		base = ErrSealed
	default:
		return fmt.Errorf("cluster: coordinator refused join (%s): %s", code, detail)
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// ClusterConfig is the contract every process of one cluster must agree on.
// The coordinator is launched with it; each worker is launched with its own
// copy and the join handshake verifies the checksums match.
type ClusterConfig struct {
	Workers int // worker processes
	Ranks   int // total ranks, divided contiguously: Ranks/Workers per worker

	// Graph: a deterministic RMAT instance every worker generates locally.
	Scale uint
	Seed  uint64

	Topology string // mailbox routing ("1d" default)
	Ghosts   int    // ghost-table cap per partition (0 = default, negative = off: core.BuildGhostTables)
	Reliable bool   // run the shared mailbox in reliable mode
	Simplify bool   // drop self loops and duplicate edges (required for kcore)

	MaxInFlight int // global (coordinator-side) concurrent-query bound

	// Failure detector tuning. Operational knobs, not cluster identity:
	// deliberately EXCLUDED from Checksum so a worker restarted with a
	// different liveness setting still joins.
	Heartbeat time.Duration // coordinator ping spacing (default 500ms)
	Liveness  time.Duration // silence after which a worker is declared dead (default 5s)
}

func (c ClusterConfig) normalized() ClusterConfig {
	if c.Topology == "" {
		c.Topology = "1d"
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.Liveness <= 0 {
		c.Liveness = 5 * time.Second
	}
	if c.Liveness < 2*c.Heartbeat {
		// A liveness window under two heartbeats would evict healthy workers
		// on scheduler jitter alone.
		c.Liveness = 2 * c.Heartbeat
	}
	return c
}

func (c ClusterConfig) validate() error {
	if c.Workers < 1 {
		return errors.New("cluster: need at least one worker")
	}
	if c.Ranks < c.Workers || c.Ranks%c.Workers != 0 {
		return fmt.Errorf("cluster: ranks (%d) must be a positive multiple of workers (%d)", c.Ranks, c.Workers)
	}
	return nil
}

// Checksum digests the fields every process must share. Topology and
// reliability change the message plane; scale/seed change the graph; worker
// and rank counts change the partition map — any divergence makes the
// cluster nonsense, so all of them are covered.
func (c ClusterConfig) Checksum() string {
	c = c.normalized()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%s|%d|%t|%t|%d",
		c.Workers, c.Ranks, c.Scale, c.Seed, c.Topology, c.Ghosts, c.Reliable, c.Simplify, c.MaxInFlight)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ranksPerWorker returns the contiguous window width.
func (c ClusterConfig) ranksPerWorker() int { return c.Ranks / c.Workers }

// window returns worker slot s's rank window [lo, hi).
func (c ClusterConfig) window(s int) (lo, hi int) {
	w := c.ranksPerWorker()
	return s * w, (s + 1) * w
}

// workerInfo is one worker's entry in the sealed cluster layout.
type workerInfo struct {
	Slot     int    `json:"slot"`
	MeshAddr string `json:"meshAddr"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
}

// msg is the single control-plane message shape; Type selects which fields
// are meaningful. One struct keeps the codec trivial (a JSON line per
// message) at the cost of some slack — acceptable on a low-rate plane.
//
// Types, worker → coordinator: "join", "ready", "result", "layout-ack",
// "pong".
// Types, coordinator → worker: "joined", "error", "cluster", "submit",
// "cancel", "shutdown", "ping", "abort", "evicted".
type msg struct {
	Type string `json:"type"`

	// join / joined / error
	Version   string `json:"version,omitempty"`
	ConfigSum string `json:"configSum,omitempty"`
	Slot      int    `json:"slot"`
	MeshAddr  string `json:"meshAddr,omitempty"`
	Code      string `json:"code,omitempty"`
	Detail    string `json:"detail,omitempty"`
	// Rejoin marks a "joined" verdict on an already-formed cluster: the
	// worker must rebuild its partitions locally (the survivors are serving
	// and cannot run a collective build) under the bumped epoch.
	Rejoin bool `json:"rejoin,omitempty"`

	// cluster
	Epoch   uint64       `json:"epoch,omitempty"`
	Workers []workerInfo `json:"workers,omitempty"`

	// submit / cancel / result
	QID        uint32 `json:"qid,omitempty"`
	Algo       string `json:"algo,omitempty"`
	Source     uint64 `json:"source,omitempty"`
	WeightSeed uint64 `json:"weightSeed,omitempty"`
	K          uint32 `json:"k,omitempty"`
	Iters      uint32 `json:"iters,omitempty"`

	// result: the worker's contiguous master range [Lo, Hi) of the global
	// vertex space plus the per-algorithm array slice over it.
	Lo        uint64   `json:"vlo,omitempty"`
	Hi        uint64   `json:"vhi,omitempty"`
	Levels    []uint32 `json:"levels,omitempty"`
	Dist      []uint64 `json:"dist,omitempty"`
	Labels    []uint64 `json:"labels,omitempty"`
	InCore    []bool   `json:"inCore,omitempty"`
	Ranks     []uint64 `json:"ranks,omitempty"`
	Accum     uint64   `json:"accum,omitempty"` // worker-local component/core/triangle sum
	Waves     uint64   `json:"waves,omitempty"` // detector waves (slot hosting rank 0 only)
	Cancelled bool     `json:"cancelled,omitempty"`
	Err       string   `json:"err,omitempty"`
}
