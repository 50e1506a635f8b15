package mailbox

// Reliable envelope delivery: the recovery half of the message-plane fault
// model. A Box built WithReliable wraps every aggregated envelope in a
// sequence-numbered, checksummed frame and runs a per-hop selective-repeat
// protocol — cumulative acks, idempotent duplicate suppression, in-order
// release of out-of-order arrivals, and capped exponential-backoff
// retransmission — so a fault-injecting transport (internal/faults) that
// drops, duplicates, reorders, or bit-flips mailbox envelopes no longer
// violates the internal/check conservation laws: every logical envelope is
// delivered exactly once, eventually.
//
// Wire format, multiplexed on rt.KindMailbox by the rt.Msg tag:
//
//	data (tag relData): [epoch u32][seq u64][crc64 u64][framed runs...]
//	ack  (tag relAck):  [epoch u32][cumAck u64][crc64 u64]
//
// The CRC (ECMA crc64 over header fields + records) turns payload corruption
// into loss: a corrupted frame is dropped unacknowledged and the sender
// retransmits the intact original (senders keep an exclusive copy of every
// unacked frame). cumAck is the receiver's next-needed sequence number, so
// one ack retires every lower-numbered frame at once.
//
// The epoch — minted collectively via rt.Rank.NextBoxEpoch at Box creation —
// fences traversals from each other: a retransmission that outlives its
// traversal and lands in the next traversal's inbox carries a stale epoch
// and is discarded (counted under mailbox.stale_dropped) instead of being
// decoded into the wrong traversal's sequence space.
//
// Stats stay logical-once: EnvelopesSent counts logical envelopes (not
// retransmissions; those are Stats.Retransmits), EnvelopesRecv counts
// accepted envelopes (not duplicates; those are Stats.DupDropped), so the
// machine-wide envelope conservation law Σsent == Σrecv still holds at
// quiescence under any fault schedule the protocol survives.
//
// What is NOT tolerated: loss on the control (termination) and collective
// planes — the reliable layer guards only rt.KindMailbox traffic. Delay and
// reordering on those planes are safe (the detector and collectives are
// sequence-tagged); loss is not, and fault plans must not drop them.

import (
	"encoding/binary"
	"hash/crc64"
	"time"

	"havoqgt/internal/rt"
)

// Wire tags multiplexed on rt.KindMailbox by the reliable layer. The raw
// (unreliable) path ships envelopes with tag 0; a reliable Box never sees
// tag-0 traffic because mailboxes are created collectively with uniform
// options.
const (
	relData uint32 = 1
	relAck  uint32 = 2
)

// relHeader is the reliable frame prefix: [epoch u32][seq u64][crc64 u64].
// An ack frame is exactly one header with cumAck in the seq slot.
const relHeader = 20

// Default retransmission timeout bounds (see WithRTO).
const (
	DefaultRTOBase = 2 * time.Millisecond
	DefaultRTOMax  = 50 * time.Millisecond
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// frameCRC computes the checksum of a data or ack frame: header fields
// (epoch+seq, bytes [0:12]) plus the record bytes past the header.
func frameCRC(frame []byte) uint64 {
	c := crc64.Update(0, crcTable, frame[:12])
	return crc64.Update(c, crcTable, frame[relHeader:])
}

// outEnv is one unacknowledged outbound frame.
//
// The STRUCT is recycled through the reliable layer's freelist once its
// frame is acked; the FRAME BYTES never are, in either direction (pool.go's
// safety rule): the sender ships the very buffer it retains for
// retransmission, so until the machine is quiescent an acked frame can
// still be aliased by a delayed retransmission copy sitting in the
// receiver's inbox — reusing those bytes could morph a stale in-flight copy
// into a different valid-looking frame.
type outEnv struct {
	seq      uint64
	frame    []byte // exclusive copy, retained until acked; never pooled
	lastSend time.Time
	rto      time.Duration // next retransmit backoff
}

// outPeer is the sender half of one hop's channel.
type outPeer struct {
	nextSeq uint64
	unacked []*outEnv // ascending seq
}

// inPeer is the receiver half of one hop's channel.
type inPeer struct {
	expected uint64            // next in-order seq needed
	held     map[uint64][]byte // out-of-order frames parked until the gap fills
}

// envFreeCap bounds the outEnv struct freelist; retired structs beyond the
// cap are left for the garbage collector.
const envFreeCap = 64

// reliable is the per-Box protocol state.
type reliable struct {
	r         *rt.Rank
	b         *Box // scratch and stats backref
	epoch     uint32
	base, max time.Duration
	out       map[int]*outPeer
	in        map[int]*inPeer

	// envFree recycles outEnv structs (not their frames; see outEnv) so the
	// steady-state send path allocates only the frame itself.
	envFree []*outEnv

	// ackPool recycles 20-byte ack frames. An ack is built by the receiver,
	// consumed by exactly the sender that drains it, and never retained by
	// either side — so on an exclusive-delivery transport the consumed
	// payload can back the consumer's next outbound ack. Gated on
	// rt.Rank.ExclusiveDelivery like every inbound-recycling path.
	ackPool [][]byte
}

func newReliable(r *rt.Rank, b *Box, base, max time.Duration) *reliable {
	if base <= 0 {
		base = DefaultRTOBase
	}
	if max < base {
		max = DefaultRTOMax
		if max < base {
			max = base
		}
	}
	return &reliable{
		r:     r,
		b:     b,
		epoch: r.NextBoxEpoch(),
		base:  base,
		max:   max,
		out:   make(map[int]*outPeer),
		in:    make(map[int]*inPeer),
	}
}

func (rl *reliable) outPeer(hop int) *outPeer {
	op := rl.out[hop]
	if op == nil {
		op = &outPeer{}
		rl.out[hop] = op
	}
	return op
}

func (rl *reliable) inPeer(from int) *inPeer {
	ip := rl.in[from]
	if ip == nil {
		ip = &inPeer{held: make(map[uint64][]byte)}
		rl.in[from] = ip
	}
	return ip
}

// getEnv returns an outEnv struct, recycled from the freelist when possible.
func (rl *reliable) getEnv() *outEnv {
	if n := len(rl.envFree); n > 0 {
		e := rl.envFree[n-1]
		rl.envFree[n-1] = nil
		rl.envFree = rl.envFree[:n-1]
		return e
	}
	return new(outEnv)
}

// putEnv retires an acked outEnv to the freelist, dropping its frame
// reference (the frame bytes are never reused; see outEnv).
func (rl *reliable) putEnv(e *outEnv) {
	e.frame = nil
	if len(rl.envFree) < envFreeCap {
		rl.envFree = append(rl.envFree, e)
	}
}

// send frames records as the hop's next sequence number, retains the frame
// for retransmission, and ships it. The records buffer is copied into the
// frame, so the caller may recycle it the moment send returns.
func (rl *reliable) send(hop int, records []byte) {
	op := rl.outPeer(hop)
	seq := op.nextSeq
	op.nextSeq++
	frame := make([]byte, relHeader+len(records))
	binary.LittleEndian.PutUint32(frame[0:], rl.epoch)
	binary.LittleEndian.PutUint64(frame[4:], seq)
	copy(frame[relHeader:], records)
	binary.LittleEndian.PutUint64(frame[12:], frameCRC(frame))
	e := rl.getEnv()
	e.seq, e.frame, e.lastSend, e.rto = seq, frame, time.Now(), rl.base
	op.unacked = append(op.unacked, e)
	rl.r.Send(hop, rt.KindMailbox, relData, frame)
}

// poll drains the transport, appending accepted envelope record-bytes to out
// in per-peer sequence order, then drives the retransmission timers. Exactly
// the reliable analogue of the raw path's rt.Rank.RecvInto.
func (rl *reliable) poll(out [][]byte) [][]byte {
	rl.b.msgScratch = rl.r.RecvInto(rt.KindMailbox, rl.b.msgScratch[:0])
	for i := range rl.b.msgScratch {
		m := &rl.b.msgScratch[i]
		switch m.Tag {
		case relAck:
			rl.handleAck(*m)
		case relData:
			out = rl.handleData(*m, out)
		default:
			// Unframed traffic on a reliable box: misconfiguration, count it
			// where envelope malformations are counted.
			rl.b.stats.DecodeErrors++
		}
		m.Payload = nil
	}
	rl.tick()
	return out
}

func (rl *reliable) handleAck(m rt.Msg) {
	p := m.Payload
	if len(p) != relHeader || frameCRC(p) != binary.LittleEndian.Uint64(p[12:]) {
		rl.b.stats.CorruptDropped++ // damaged ack: ignore, data will be re-acked
		return
	}
	if binary.LittleEndian.Uint32(p[0:]) != rl.epoch {
		rl.b.stats.StaleDropped++
		return
	}
	cum := binary.LittleEndian.Uint64(p[4:])
	op := rl.outPeer(m.From)
	i := 0
	for i < len(op.unacked) && op.unacked[i].seq < cum {
		rl.putEnv(op.unacked[i]) // struct back to the freelist, frame to the GC
		i++
	}
	if i > 0 {
		n := copy(op.unacked, op.unacked[i:])
		for j := n; j < len(op.unacked); j++ {
			op.unacked[j] = nil
		}
		op.unacked = op.unacked[:n]
	}
	// The drained ack frame has a single live reference (neither side retains
	// acks) — on an exclusive-delivery transport it can back this rank's next
	// outbound ack.
	rl.recycleAck(p)
}

// recycleAck offers a consumed ack frame to the ack pool.
func (rl *reliable) recycleAck(p []byte) {
	if cap(p) < relHeader || len(rl.ackPool) >= envPoolCap || !rl.r.ExclusiveDelivery() {
		return
	}
	rl.ackPool = append(rl.ackPool, p[:relHeader])
}

func (rl *reliable) handleData(m rt.Msg, out [][]byte) [][]byte {
	p := m.Payload
	if len(p) < relHeader || frameCRC(p) != binary.LittleEndian.Uint64(p[12:]) {
		// Corruption becomes loss: no ack, the sender retransmits the intact
		// frame it retained.
		rl.b.stats.CorruptDropped++
		return out
	}
	if binary.LittleEndian.Uint32(p[0:]) != rl.epoch {
		rl.b.stats.StaleDropped++
		return out
	}
	seq := binary.LittleEndian.Uint64(p[4:])
	ip := rl.inPeer(m.From)
	switch {
	case seq < ip.expected:
		// Already delivered: idempotent drop, but re-ack — the original ack
		// may have been the lost message.
		rl.b.stats.DupDropped++
	case seq == ip.expected:
		out = append(out, p[relHeader:])
		ip.expected++
		// Release any parked frames the gap was blocking, in order.
		for {
			held, ok := ip.held[ip.expected]
			if !ok {
				break
			}
			delete(ip.held, ip.expected)
			out = append(out, held)
			ip.expected++
		}
	default:
		// Future frame: park it until the gap fills (selective repeat).
		if _, dup := ip.held[seq]; dup {
			rl.b.stats.DupDropped++
		} else {
			ip.held[seq] = p[relHeader:]
		}
	}
	rl.sendAck(m.From, ip.expected)
	return out
}

// sendAck ships a cumulative ack: cum is the next sequence number the
// receiver needs, retiring every lower-numbered unacked frame at the sender.
func (rl *reliable) sendAck(to int, cum uint64) {
	var frame []byte
	if n := len(rl.ackPool); n > 0 {
		frame = rl.ackPool[n-1]
		rl.ackPool[n-1] = nil
		rl.ackPool = rl.ackPool[:n-1]
	} else {
		frame = make([]byte, relHeader)
	}
	binary.LittleEndian.PutUint32(frame[0:], rl.epoch)
	binary.LittleEndian.PutUint64(frame[4:], cum)
	binary.LittleEndian.PutUint64(frame[12:], frameCRC(frame))
	rl.b.stats.AcksSent++
	rl.r.Send(to, rt.KindMailbox, relAck, frame)
}

// tick retransmits every unacked frame whose RTO expired, doubling its
// backoff up to the cap. Driven from Box.Poll, which every rank loop calls
// continuously.
func (rl *reliable) tick() {
	now := time.Now()
	for hop, op := range rl.out {
		for _, e := range op.unacked {
			if now.Sub(e.lastSend) < e.rto {
				continue
			}
			e.lastSend = now
			e.rto *= 2
			if e.rto > rl.max {
				e.rto = rl.max
			}
			rl.b.stats.Retransmits++
			rl.r.Send(hop, rt.KindMailbox, relData, e.frame)
		}
	}
}

// idle reports whether every outbound frame has been acknowledged. Folded
// into Box.Idle so a rank keeps driving retransmission (and stays non-idle
// for termination detection) until its deliveries are confirmed — quiescence
// then implies the message plane is truly drained, and no retransmission can
// leak into a later phase.
func (rl *reliable) idle() bool {
	for _, op := range rl.out {
		if len(op.unacked) > 0 {
			return false
		}
	}
	return true
}
