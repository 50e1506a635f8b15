// Package core implements the paper's primary contribution: the distributed
// asynchronous visitor queue (§IV–§V, Algorithm 1). Traversal algorithms are
// expressed as visitors — vertex-centric procedures with the ability to pass
// visitor state to other vertices — and the queue provides parallelism,
// asynchronous transmission through the routed mailbox, scheduling via a
// local calendar of FIFO buckets, replica forwarding for split adjacency
// lists, a ghost filter for high in-degree hubs that stale-tolerant
// algorithms consult in their push loops (GhostFilter), and termination
// detection. Kernels that touch every
// vertex every step run as counted rounds instead (RoundExchange), on the
// same mailbox and detector.
package core

import "havoqgt/internal/graph"

// Visitor is the stored state representing a vertex to be visited (Table I).
// Concrete visitor types are small value structs defined by each algorithm.
type Visitor interface {
	// Vertex returns the vertex this visitor targets.
	Vertex() graph.Vertex
}

// Algorithm supplies the visitor procedures of Table I for visitor type V,
// plus the wire codec the mailbox needs. One Algorithm value exists per rank
// per traversal and owns that rank's algorithm state arrays (e.g. BFS
// levels); PreVisit and Visit therefore run with exclusive access to the
// vertex's local (master or replica) state.
type Algorithm[V Visitor] interface {
	// PreVisit performs a preliminary evaluation of the state and returns
	// true if the visit should proceed. Called on every rank that holds
	// state for the vertex (master first, then replicas down the chain) —
	// on the master possibly from inside another vertex's Visit, because a
	// Push for a vertex the pushing rank masters is applied before Push
	// returns. It must not push.
	PreVisit(v V) bool

	// Visit is the main visitor procedure. It may push new visitors into
	// the queue. It sees only the local portion of the vertex's adjacency
	// list; replicas of a split vertex each visit their own portion. Any
	// per-vertex state it needs it must read before a Push or re-read after:
	// a Push can run PreVisit on another local vertex, or this one. A
	// stale-tolerant algorithm asks q.Ghosts().Drop before each PushEdge.
	Visit(v V, q *Queue[V])

	// Encode appends v's wire form to buf and returns it.
	Encode(v V, buf []byte) []byte
	// Decode parses one visitor from buf (which holds exactly one record).
	// Decode must NOT retain buf: the mailbox hands out arena sub-slices
	// that are reclaimed at its next Poll (mailbox.Record), so the visitor
	// must be reconstructed into value-typed fields (all in-tree algorithms
	// decode into plain structs).
	Decode(buf []byte) V
}

// BucketAlgorithm is the one order declaration: it is implemented by
// algorithms whose visitor ordering is a small integer — BFS's level. The
// queue's local scheduler is a calendar
// of FIFO buckets drained in ascending bucket order, push and pop O(1)
// amortized, visitors within one bucket in arrival order. An algorithm that
// does not implement it — cc, k-core, triangle counting — drains one FIFO
// bucket 0. Correctness never depends on the order: label-correcting
// kernels converge to the same fixpoint under any drain order, and bucket
// order merely keeps the work near-optimal.
type BucketAlgorithm[V Visitor] interface {
	Algorithm[V]
	// Bucket returns the visitor's scheduling bucket (e.g. the BFS level).
	Bucket(v V) uint64
}
