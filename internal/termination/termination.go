// Package termination implements distributed quiescence detection for the
// asynchronous visitor queue, following the counting approach the paper
// adopts from Mattern (§V, global_empty): an asynchronous reduction of the
// global visitor send and receive counts, repeated in waves.
//
// Protocol. Rank 0 initiates counting waves over a binary tree. Each wave
// accumulates, across all ranks, the monotone counters S (messages sent) and
// R (messages received) plus an all-idle flag. The system is declared
// quiescent when two consecutive waves report identical counts with S == R
// and all ranks idle in both waves.
//
// Safety: counters are per-rank monotone. Equal aggregate S across two waves
// implies equal per-rank values, so no rank sent between its two reads
// (likewise receives). S == R then rules out in-flight messages: a message
// sent before a wave-1 read but not yet received would leave R < S, and a
// send after a wave-1 read would change S by wave 2. With both waves idle and
// no queued work, no rank can create new messages. Liveness: ranks answer
// wave requests from inside the traversal loop even while busy, so waves
// always complete; once the system is quiet two identical waves follow.
//
// Checking for non-termination is asynchronous — a busy rank answers a wave
// with its current counters and keeps working; the final synchronization
// happens only after the queues are already empty, as the paper notes.
package termination

import (
	"encoding/binary"

	"havoqgt/internal/obs"
	"havoqgt/internal/rt"
)

// Control message types (carried in the low bits of rt.Msg.Tag; the high
// bits carry the detector instance ID so many detectors — one per in-flight
// query — can share the control plane without stealing each other's waves).
const (
	tagReq  uint32 = 1 // root→leaves: report counters for wave N
	tagAck  uint32 = 2 // child→parent: aggregated (S, R, idle) for wave N
	tagDone uint32 = 3 // root→leaves: quiescence detected, stop

	typeBits = 2                    // low bits holding the message type
	typeMask = 1<<typeBits - 1      // 0b11
	MaxID    = 1<<(32-typeBits) - 1 // largest detector instance ID
)

// Detector tracks one traversal's visitor counters and drives detection
// waves. The engine mints one per rank per query with Mux.Detector, so many
// traversals share the machine; New makes a standalone one that owns the
// whole control plane (a mailbox exchange with nothing else on the machine).
type Detector struct {
	r   *rt.Rank
	id  uint32 // instance ID; 0 for a standalone detector (New)
	mux *Mux   // control-plane demultiplexer; nil = exclusive KindControl use

	sent     uint64 // visitors sent by this rank (monotone)
	received uint64 // visitors received by this rank (monotone)

	// In-progress wave aggregation state.
	wave       uint64
	acksWanted int
	acksSeen   int
	accS, accR uint64
	accIdle    bool

	// Root-only: previous completed wave's result.
	rootWaveOpen bool
	prevValid    bool
	prevS, prevR uint64
	prevIdle     bool

	done bool
	// Waves counts completed waves (exported for tests/metrics).
	Waves uint64

	// Machine-wide observability counters (root increments them).
	obsWaves   *obs.Counter
	obsRetests *obs.Counter
}

// New returns a detector bound to the rank, with exclusive use of the
// control message plane (instance ID 0).
func New(r *rt.Rank) *Detector {
	return &Detector{
		r:          r,
		obsWaves:   r.Obs().Counter(obs.TermWaves),
		obsRetests: r.Obs().Counter(obs.TermRetests),
	}
}

// tag namespaces a control message type with this detector's instance ID.
func (d *Detector) tag(typ uint32) uint32 { return d.id<<typeBits | typ }

// recv returns the pending control messages addressed to this detector:
// everything on the control plane for an exclusive detector, or just this
// instance's slice of the shared plane under a Mux.
func (d *Detector) recv() []rt.Msg {
	if d.mux != nil {
		d.mux.poll()
		return d.mux.take(d.id)
	}
	return d.r.Recv(rt.KindControl)
}

// Mux demultiplexes one rank's control message plane across many detector
// instances, keyed by the instance ID carried in the message tag. Create one
// per rank, then mint per-query detectors with Detector. Messages for
// instances not yet registered are buffered until that instance pumps —
// asynchronous query admission means a fast rank's first wave can reach a
// rank that has not created the query's detector yet.
//
// A Mux (like the Detectors it serves) is confined to its rank's goroutine.
type Mux struct {
	r      *rt.Rank
	queues map[uint32][]rt.Msg
	dead   map[uint32]struct{} // retired ids whose late waves are dropped
}

// NewMux returns a control-plane demultiplexer for the rank.
func NewMux(r *rt.Rank) *Mux {
	return &Mux{r: r, queues: make(map[uint32][]rt.Msg)}
}

// Detector mints the detector instance for id on this rank. Every rank of
// the machine must mint the same id for waves to aggregate; ids must not be
// reused until the previous instance detected quiescence.
func (m *Mux) Detector(id uint32) *Detector {
	if id > MaxID {
		panic("termination: detector instance id overflows the tag namespace")
	}
	return &Detector{
		r:          m.r,
		id:         id,
		mux:        m,
		obsWaves:   m.r.Obs().Counter(obs.TermWaves),
		obsRetests: m.r.Obs().Counter(obs.TermRetests),
	}
}

// poll drains newly arrived control messages into per-instance queues.
// Messages for retired ids are dropped on the floor: after a forced abort the
// surviving ranks keep emitting waves for the id until they abort too, and
// buffering those would pin memory forever.
func (m *Mux) poll() {
	for _, msg := range m.r.Recv(rt.KindControl) {
		id := msg.Tag >> typeBits
		if _, gone := m.dead[id]; gone {
			continue
		}
		m.queues[id] = append(m.queues[id], msg)
	}
}

// take removes and returns the queued messages for instance id.
func (m *Mux) take(id uint32) []rt.Msg {
	msgs := m.queues[id]
	if msgs != nil {
		delete(m.queues, id)
	}
	return msgs
}

// Release drops any remaining buffered messages for a retired instance.
// Safe only after the instance's Pump returned true on this rank: global
// quiescence plus DONE propagation guarantee no further control traffic for
// the id.
func (m *Mux) Release(id uint32) { delete(m.queues, id) }

// Retire drops the instance's buffered messages AND blacklists the id so
// late-arriving waves are discarded at poll time instead of re-buffered.
// This is the forced-abort teardown (process failure elsewhere in the
// cluster): quiescence never happened, so other ranks may still emit control
// traffic for the id. Ids are never reused within an engine's lifetime, so
// the blacklist entry (one id per aborted query) is a bounded, permanent
// tombstone.
func (m *Mux) Retire(id uint32) {
	delete(m.queues, id)
	if m.dead == nil {
		m.dead = make(map[uint32]struct{})
	}
	m.dead[id] = struct{}{}
}

// CountSent records n visitor sends.
func (d *Detector) CountSent(n uint64) { d.sent += n }

// CountReceived records n visitor receipts.
func (d *Detector) CountReceived(n uint64) { d.received += n }

// Sent returns the local monotone send counter.
func (d *Detector) Sent() uint64 { return d.sent }

// Received returns the local monotone receive counter.
func (d *Detector) Received() uint64 { return d.received }

func (d *Detector) parent() int { return (d.r.Rank() - 1) / 2 }

func (d *Detector) children() (c [2]int, n int) {
	if l := 2*d.r.Rank() + 1; l < d.r.Size() {
		c[n] = l
		n++
	}
	if rr := 2*d.r.Rank() + 2; rr < d.r.Size() {
		c[n] = rr
		n++
	}
	return c, n
}

// Pump processes pending control messages and, on the root, launches waves
// while the root itself is idle. localIdle must be true iff the caller's
// local visitor queue is empty and it is not executing a visitor. Returns
// true once global quiescence has been detected (on every rank, exactly
// once detection completes).
func (d *Detector) Pump(localIdle bool) bool {
	if d.done {
		return true
	}
	for _, m := range d.recv() {
		switch m.Tag & typeMask {
		case tagReq:
			d.startWave(binary.LittleEndian.Uint64(m.Payload), localIdle)
		case tagAck:
			w := binary.LittleEndian.Uint64(m.Payload[0:])
			if w != d.wave || d.acksWanted < 0 {
				break // stale ack from an already-finished wave
			}
			s := binary.LittleEndian.Uint64(m.Payload[8:])
			r := binary.LittleEndian.Uint64(m.Payload[16:])
			idle := m.Payload[24] == 1
			d.accS += s
			d.accR += r
			d.accIdle = d.accIdle && idle
			d.acksSeen++
			d.maybeFinishWave()
		case tagDone:
			d.forwardDone()
			d.done = true
			return true
		}
	}
	// Root: start a wave when idle and none outstanding.
	if d.r.Rank() == 0 && localIdle && !d.rootWaveOpen && !d.done {
		d.wave++
		// Mark the wave open before starting it: on small machines the wave
		// can complete synchronously inside startWave, which clears the flag.
		d.rootWaveOpen = true
		d.startWave(d.wave, localIdle)
	}
	return d.done
}

// startWave begins participating in wave w: forward the request to children
// and prime the local aggregation with our own counters.
func (d *Detector) startWave(w uint64, localIdle bool) {
	d.wave = w
	d.accS = d.sent
	d.accR = d.received
	d.accIdle = localIdle
	d.acksSeen = 0
	c, n := d.children()
	d.acksWanted = n
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w)
	for i := 0; i < n; i++ {
		d.r.Send(c[i], rt.KindControl, d.tag(tagReq), append([]byte(nil), buf[:]...))
	}
	d.maybeFinishWave()
}

// maybeFinishWave sends the aggregate up (or, at the root, evaluates the
// quiescence condition) once all children have answered.
func (d *Detector) maybeFinishWave() {
	if d.acksWanted < 0 || d.acksSeen < d.acksWanted {
		return
	}
	d.acksWanted = -1 // guard against double-finish until next wave
	if d.r.Rank() != 0 {
		buf := make([]byte, 25)
		binary.LittleEndian.PutUint64(buf[0:], d.wave)
		binary.LittleEndian.PutUint64(buf[8:], d.accS)
		binary.LittleEndian.PutUint64(buf[16:], d.accR)
		if d.accIdle {
			buf[24] = 1
		}
		d.r.Send(d.parent(), rt.KindControl, d.tag(tagAck), buf)
		return
	}
	// Root: wave complete.
	d.Waves++
	d.obsWaves.Inc()
	d.rootWaveOpen = false
	quiescent := d.prevValid &&
		d.accIdle && d.prevIdle &&
		d.accS == d.accR &&
		d.accS == d.prevS && d.accR == d.prevR
	d.prevValid = true
	d.prevS, d.prevR, d.prevIdle = d.accS, d.accR, d.accIdle
	if quiescent {
		d.forwardDone()
		d.done = true
	} else {
		// The wave did not confirm quiescence: the detector must retest
		// with another wave (the paper's repeated global_empty cycles).
		d.obsRetests.Inc()
	}
}

// forwardDone propagates the DONE signal to this rank's children.
func (d *Detector) forwardDone() {
	c, n := d.children()
	for i := 0; i < n; i++ {
		d.r.Send(c[i], rt.KindControl, d.tag(tagDone), nil)
	}
}
