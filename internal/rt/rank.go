package rt

import (
	"runtime"
	"time"

	"havoqgt/internal/obs"
)

// Rank is one simulated process. It is created by Machine.Run and must only
// be used by the goroutine it was handed to.
type Rank struct {
	m    *Machine
	rank int

	// pending holds received-but-unconsumed messages, separated by kind so
	// subsystems drain independently.
	pending [numKinds][]Msg
	scratch []Msg // reusable drain buffer

	collSeq  uint32   // collective sequence number (see collectives.go)
	collPool [][]byte // recycled 8-byte collective scratch buffers
}

// collPoolCap bounds the per-rank collective scratch free-list.
const collPoolCap = 32

// Rank returns this rank's id in [0, Size()).
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks in the machine.
func (r *Rank) Size() int { return r.m.p }

// Machine returns the underlying machine (for stats; rank code must not use
// it to touch other ranks' state).
func (r *Rank) Machine() *Machine { return r.m }

// Obs returns the machine's metrics registry, through which every subsystem
// holding a Rank (mailbox, termination, visitor queue, algorithm drivers)
// reports into one coherent data source.
func (r *Rank) Obs() *obs.Registry { return r.m.reg }

// NextBoxEpoch returns this rank's next mailbox generation number. The
// counter lives on the machine (it survives across Run phases), and every
// rank advances it once per routed-mailbox construction; since mailboxes are
// created collectively, all ranks observe the same epoch for the same
// traversal, letting a reliable mailbox reject stale retransmissions from a
// previous traversal's channels.
func (r *Rank) NextBoxEpoch() uint32 { return r.m.boxEpochs[r.rank].Add(1) }

// Send posts a message to rank `to`. It never blocks.
func (r *Rank) Send(to int, kind uint8, tag uint32, payload []byte) {
	r.m.send(Msg{From: r.rank, To: to, Kind: kind, Tag: tag, Payload: payload})
}

// Poll drains this rank's transport inbox into the per-kind pending queues.
func (r *Rank) Poll() {
	r.scratch = r.m.drain(r.rank, r.scratch[:0])
	for _, msg := range r.scratch {
		r.pending[msg.Kind] = append(r.pending[msg.Kind], msg)
	}
	r.scratch = r.scratch[:0]
}

// Recv polls and returns all pending messages of the given kind. The returned
// slice is owned by the caller; the pending queue is reset.
func (r *Rank) Recv(kind uint8) []Msg {
	r.Poll()
	msgs := r.pending[kind]
	r.pending[kind] = nil
	return msgs
}

// RecvInto polls and appends all pending messages of the given kind to buf,
// returning it. Unlike Recv, the pending queue keeps its backing array (its
// entries are zeroed so payload references are released), so a steady-state
// poll loop that reuses buf across calls allocates nothing. Message payload
// ownership is the same as Recv's.
func (r *Rank) RecvInto(kind uint8, buf []Msg) []Msg {
	r.Poll()
	q := r.pending[kind]
	buf = append(buf, q...)
	for i := range q {
		q[i] = Msg{}
	}
	r.pending[kind] = q[:0]
	return buf
}

// ExclusiveDelivery reports whether payloads drained from the transport are
// provably the receiver's exclusive reference. True on the perfect transport:
// a sender that ships a buffer never touches it again, and exactly one inbox
// entry references it. Installing any fault-injecting Transport permanently
// flips this to false (a Duplicate fate enqueues two references to one
// payload), which tells buffer-recycling layers — the mailbox envelope pool,
// the collective scratch pool — to stop reusing consumed buffers rather than
// risk aliasing. The flag is sticky because a duplicated message can outlive
// the injector that minted it.
func (r *Rank) ExclusiveDelivery() bool { return !r.m.hadTransport.Load() }

// collBuf returns an 8-byte scratch buffer for a collective payload,
// preferring a recycled one (see collRecycle).
func (r *Rank) collBuf() []byte {
	if n := len(r.collPool); n > 0 {
		b := r.collPool[n-1]
		r.collPool[n-1] = nil
		r.collPool = r.collPool[:n-1]
		r.m.collHits.Inc()
		return b[:8]
	}
	r.m.collMisses.Inc()
	return make([]byte, 8)
}

// collRecycle hands a consumed collective payload back to the rank's scratch
// pool. Only up-phase reduction contributions qualify: they are built by one
// child, consumed by exactly one parent, and never retained — whereas a
// broadcast's down-buffer is shared by every child it was sent to and must
// not be recycled. Skipped entirely once fault injection has broken delivery
// exclusivity (ExclusiveDelivery).
func (r *Rank) collRecycle(b []byte) {
	if cap(b) < 8 || len(r.collPool) >= collPoolCap || !r.ExclusiveDelivery() {
		return
	}
	r.collPool = append(r.collPool, b[:8])
}

// waitMatch blocks until a message of the given kind arrives satisfying
// match, removes it from pending, and returns it. Other messages of the kind
// stay queued in arrival order. Used by collectives, which must tolerate
// messages from a later collective arriving early.
func (r *Rank) waitMatch(kind uint8, match func(Msg) bool) Msg {
	for spin := 0; ; spin++ {
		r.Poll()
		q := r.pending[kind]
		for i, msg := range q {
			if match(msg) {
				r.pending[kind] = append(q[:i], q[i+1:]...)
				return msg
			}
		}
		idleWait(spin)
	}
}

// idleWait backs off progressively while a rank spins waiting for messages:
// yield for a while, then sleep briefly so oversubscribed simulations (more
// ranks than cores) don't burn the host.
func idleWait(spin int) {
	switch {
	case spin < 64:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}
