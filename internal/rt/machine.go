// Package rt simulates a distributed-memory machine: p ranks, each a
// goroutine with strictly private state, connected only by a byte-level
// message transport. It stands in for MPI in the paper's environment
// (non-blocking point-to-point communication, collectives built from
// point-to-point messages) so the visitor-queue framework above it is
// structured exactly as a distributed program.
//
// Discipline: rank code must never share mutable state with other ranks
// except through Send/Recv. The experiment harness enforces per-rank result
// slots for anything it needs back.
//
// The transport is asynchronous and unbounded: Send never blocks, Recv never
// blocks (it returns what has arrived). Per sender→receiver pair, message
// order is preserved (FIFO), matching MPI's non-overtaking guarantee, which
// the visitor queue's replica-forwarding chain relies on.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"havoqgt/internal/obs"
)

// Message kinds multiplexed over the transport. Each subsystem owns a kind so
// its traffic can be drained independently (no head-of-line blocking between,
// say, visitor delivery and termination-detection control waves).
const (
	KindMailbox uint8 = iota // routed visitor traffic (internal/mailbox)
	KindControl              // termination detection (internal/termination)
	KindColl                 // collectives (this package)
	numKinds
)

// KindName returns the metric label for a message kind.
func KindName(kind uint8) string {
	switch kind {
	case KindMailbox:
		return "mailbox"
	case KindControl:
		return "control"
	case KindColl:
		return "coll"
	default:
		return "unknown"
	}
}

// Msg is one transported message.
type Msg struct {
	From    int
	To      int
	Kind    uint8
	Tag     uint32 // collective sequence / subsystem-defined tag
	Payload []byte

	sentAt    int64 // UnixNano at send, for the transport latency histogram
	deliverAt int64 // UnixNano at which the message becomes drainable
}

// inbox is a rank's receive queue. Padded to a cache line multiple to avoid
// false sharing between adjacent ranks' inboxes.
type inbox struct {
	mu sync.Mutex
	q  []Msg
	_  [64 - 8]byte //nolint:unused // padding
}

// Machine is a simulated distributed machine with a fixed number of ranks.
// All transport counters live in the machine's obs.Registry (one registry
// per machine), which downstream subsystems reach through Rank.Obs.
type Machine struct {
	p       int
	inboxes []inbox

	// Local rank window and byte fabric (see fabric.go). An in-process
	// machine hosts [0, p) and has no fabric; a cluster machine hosts
	// [localLo, localHi) and ships everything else through the fabric.
	localLo, localHi int
	fabric           Fabric

	// simLatency (ns) delays message visibility: a message sent at T is
	// deliverable only at T+simLatency, modeling interconnect / external
	// memory transfer latency that the real system would pay. 0 (the
	// default) keeps the transport instantaneous. See SetSimLatency.
	simLatency atomic.Int64

	// transport, when set, injects faults at the send/drain choke points
	// (see transport.go). pairSeqs hold the per-(from,to,kind) monotone
	// message counters that give every message a deterministic identity.
	// hadTransport latches (and never clears) once any Transport has been
	// installed: fault kinds like Duplicate enqueue two inbox references to
	// one payload, so from that point on a drained payload is no longer
	// provably the receiver's exclusive copy — buffer-recycling layers
	// (mailbox envelope pools, collective scratch) consult ExclusiveDelivery
	// and shut themselves off for the machine's remaining lifetime instead of
	// tracking per-message alias counts.
	transport    atomic.Pointer[Transport]
	hadTransport atomic.Bool
	seqOnce      sync.Once
	pairSeqs     []atomic.Uint64

	// boxEpochs are per-rank monotone generation counters handed to routed
	// mailboxes (Rank.NextBoxEpoch): boxes created collectively across ranks
	// observe the same epoch, which lets a reliable mailbox discard stale
	// retransmissions that outlive the traversal that sent them.
	boxEpochs []atomic.Uint32

	reg       *obs.Registry
	msgsSent  *obs.PerRank // per source rank
	bytesSent *obs.PerRank
	kindMsgs  [numKinds]*obs.Counter
	kindBytes [numKinds]*obs.Counter
	latency   *obs.Histogram // send→drain transport latency, nanoseconds

	// Collective scratch-pool accounting (see Rank.collBuf/collRecycle):
	// hits are collective payload sends served from recycled buffers.
	collHits   *obs.Counter
	collMisses *obs.Counter
}

// NewMachine returns a machine with p ranks. p must be >= 1.
func NewMachine(p int) *Machine {
	if p < 1 {
		panic("rt: machine needs at least one rank")
	}
	reg := obs.NewRegistry()
	m := &Machine{
		p:          p,
		localLo:    0,
		localHi:    p,
		inboxes:    make([]inbox, p),
		boxEpochs:  make([]atomic.Uint32, p),
		reg:        reg,
		msgsSent:   reg.PerRank(obs.RTMsgs, p),
		bytesSent:  reg.PerRank(obs.RTBytes, p),
		latency:    reg.Histogram(obs.RTMsgLatencyNS),
		collHits:   reg.Counter(obs.RTCollScratchHits),
		collMisses: reg.Counter(obs.RTCollScratchMisses),
	}
	for k := uint8(0); k < numKinds; k++ {
		m.kindMsgs[k] = reg.Counter(obs.RTKindMsgs(KindName(k)))
		m.kindBytes[k] = reg.Counter(obs.RTKindBytes(KindName(k)))
	}
	return m
}

// Size returns the number of ranks.
func (m *Machine) Size() int { return m.p }

// SetSimLatency makes every message take at least d of wall-clock time from
// Send to visibility at the receiver, emulating a distributed machine whose
// interconnect (or external-memory fabric) is not free. Messages already in
// flight keep the delay that was set when they were sent deliverable; the
// per-pair FIFO guarantee is unaffected because delivery is released in
// queue order. Safe to call between phases; d <= 0 restores instantaneous
// delivery.
func (m *Machine) SetSimLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.simLatency.Store(int64(d))
}

// Obs returns the machine's metrics registry.
func (m *Machine) Obs() *obs.Registry { return m.reg }

// Run executes fn concurrently on every locally hosted rank and waits for
// all of them to return (every rank on an in-process machine; the local
// window on a cluster machine, where the other processes run their own
// windows of the same collective phase). A panic on any rank is re-raised on
// the caller with the rank identified. Run may be called again for subsequent
// phases; inboxes persist across calls (they should be empty between
// well-formed phases).
func (m *Machine) Run(fn func(*Rank)) {
	var wg sync.WaitGroup
	panics := make([]any, m.p)
	for r := m.localLo; r < m.localHi; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[r] = p
				}
			}()
			fn(&Rank{m: m, rank: r})
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("rt: rank %d panicked: %v", r, p))
		}
	}
}

// send delivers a message to the destination inbox. Never blocks. With a
// fault-injecting Transport installed, the message may be dropped,
// duplicated, delayed, or bit-flipped first; the injector accounts every
// such decision in the machine's obs registry.
func (m *Machine) send(msg Msg) {
	if msg.To < 0 || msg.To >= m.p {
		panic(fmt.Sprintf("rt: send to invalid rank %d (size %d)", msg.To, m.p))
	}
	now := time.Now().UnixNano()
	msg.sentAt = now
	msg.deliverAt = now + m.simLatency.Load()
	copies := 1
	var fabricDelay time.Duration
	if tp := m.transportHook(); tp != nil {
		seq := m.pairSeq(msg.From, msg.To, msg.Kind)
		f := tp.Fate(msg.From, msg.To, msg.Kind, seq, len(msg.Payload))
		switch {
		case f.Drop:
			copies = 0
		case f.Duplicate:
			copies = 2
		}
		msg.deliverAt += int64(f.Delay)
		fabricDelay = f.Delay
		if f.Corrupt {
			msg.Payload = corruptCopy(msg.Payload, f.CorruptBit)
		}
	}
	if copies > 0 {
		if m.IsLocal(msg.To) {
			ib := &m.inboxes[msg.To]
			ib.mu.Lock()
			for c := 0; c < copies; c++ {
				ib.q = append(ib.q, msg)
			}
			ib.mu.Unlock()
		} else {
			// Remote destination: the fault verdict is already applied, so the
			// fabric ships the (possibly corrupted, duplicated, delayed)
			// message exactly as a local inbox would have seen it. Injected
			// delay rides along for the receiver to stamp its horizon.
			for c := 0; c < copies; c++ {
				m.fabric.Send(msg.From, msg.To, msg.Kind, msg.Tag, msg.Payload, fabricDelay)
			}
		}
	}
	// Counters track send attempts (logical transport load): a dropped
	// message still consumed the sender's bandwidth; the fault itself is
	// counted under faults.injected.* by the injector.
	m.msgsSent.Inc(msg.From)
	m.bytesSent.Add(msg.From, uint64(len(msg.Payload)))
	m.kindMsgs[msg.Kind].Inc()
	m.kindBytes[msg.Kind].Add(uint64(len(msg.Payload)))
}

// drain removes and returns the deliverable queued messages for rank r,
// recording each message's send→drain latency. Only messages whose
// deliverAt horizon has passed are released. On the perfect transport all
// messages of a pair share the same latency, so a prefix scan releases them
// in FIFO order; a fault-injecting transport assigns unequal delays, so the
// whole queue is scanned and ready messages are compacted out — the
// overtaking this permits is the injected reorder fault. A stalled rank
// drains nothing until its stall window passes.
func (m *Machine) drain(r int, into []Msg) []Msg {
	first := len(into)
	tp := m.transportHook()
	if tp != nil && tp.Stall(r) > 0 {
		return into
	}
	ib := &m.inboxes[r]
	ib.mu.Lock()
	if n := len(ib.q); n > 0 {
		now := time.Now().UnixNano()
		if tp == nil {
			// Perfect transport: uniform latency, release the ready prefix.
			ready := 0
			for ready < n && ib.q[ready].deliverAt <= now {
				ready++
			}
			if ready > 0 {
				into = append(into, ib.q[:ready]...)
				rest := copy(ib.q, ib.q[ready:])
				ib.q = ib.q[:rest]
			}
		} else {
			// Faulty transport: per-message delays, release every ready
			// message and compact the rest in place (stable, so messages
			// with equal horizons keep their relative order).
			kept := ib.q[:0]
			for _, msg := range ib.q {
				if msg.deliverAt <= now {
					into = append(into, msg)
				} else {
					kept = append(kept, msg)
				}
			}
			for i := len(kept); i < n; i++ {
				ib.q[i] = Msg{}
			}
			ib.q = kept
		}
	}
	ib.mu.Unlock()
	if len(into) > first {
		now := time.Now().UnixNano()
		for i := first; i < len(into); i++ {
			if d := now - into[i].sentAt; d > 0 {
				m.latency.Observe(uint64(d))
			} else {
				m.latency.Observe(0)
			}
		}
	}
	return into
}

// ResetStats zeroes every metric of the machine — transport, mailbox,
// termination, and visitor-queue counters alike — through the single
// obs.Registry.Reset path, so an experiment phase boundary can never
// observe a half-reset counter set split across subsystems.
func (m *Machine) ResetStats() { m.reg.Reset() }
