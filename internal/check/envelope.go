package check

import "encoding/binary"

// envelope framing constants, mirroring internal/mailbox: each record is
// [finalDest u32][tag u32][payloadLen u32][payload]. Kept in sync by
// TestEnvelopeFramingMatchesMailbox.
const recordHeader = 12

// EnvRecord is one record to frame into a synthetic envelope.
type EnvRecord struct {
	Dest    int
	Tag     uint32 // record namespace (query ID); 0 = untagged (Box.Send)
	Payload []byte
}

// Envelope frames records exactly as mailbox aggregation buffers do, for
// injecting synthetic (well-formed) envelopes into a Box under test.
func Envelope(records ...EnvRecord) []byte {
	var buf []byte
	for _, rec := range records {
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(rec.Dest))
		binary.LittleEndian.PutUint32(hdr[4:], rec.Tag)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(rec.Payload)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, rec.Payload...)
	}
	return buf
}

// HostileEnvelope is one adversarial envelope for the decoder, with the
// outcome the hardened decoder must produce.
type HostileEnvelope struct {
	Name    string
	Payload []byte
	// WantDelivered is the number of well-formed records addressed to rank 0
	// of a size-p machine that must still come out of Poll.
	WantDelivered int
	// WantErrors is the number of decode errors the envelope must count.
	WantErrors uint64
}

// HostileCorpusRanks is the machine size the corpus expectations assume.
const HostileCorpusRanks = 3

// HostileCorpus returns the adversarial envelope set: truncated headers,
// oversized record lengths, zero-length records, misrouted destinations, and
// combinations burying valid records around the damage. Every entry must be
// decoded by Box.Poll on rank 0 of a HostileCorpusRanks-rank machine without
// panicking, with exactly the listed deliveries and decode errors.
func HostileCorpus() []HostileEnvelope {
	valid := EnvRecord{Dest: 0, Payload: []byte("ok")}
	oversized := func() []byte {
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], 0)
		binary.LittleEndian.PutUint32(hdr[8:], 0xFFFF) // claims 65535 payload bytes
		return append(hdr[:], 'x', 'y')                // ...but carries 2
	}
	return []HostileEnvelope{
		{Name: "empty", Payload: []byte{}, WantDelivered: 0, WantErrors: 0},
		{Name: "truncated-header", Payload: []byte{0, 0, 0}, WantDelivered: 0, WantErrors: 1},
		{Name: "oversized-length", Payload: oversized(), WantDelivered: 0, WantErrors: 1},
		{Name: "oversized-length-max", Payload: func() []byte {
			var hdr [recordHeader]byte
			binary.LittleEndian.PutUint32(hdr[8:], ^uint32(0)) // length 2^32−1
			return hdr[:]
		}(), WantDelivered: 0, WantErrors: 1},
		{Name: "zero-length-record", Payload: Envelope(EnvRecord{Dest: 0}), WantDelivered: 1, WantErrors: 0},
		{Name: "misrouted-dest", Payload: Envelope(EnvRecord{Dest: HostileCorpusRanks + 7, Payload: []byte("lost")}),
			WantDelivered: 0, WantErrors: 1},
		{Name: "misrouted-dest-huge", Payload: func() []byte {
			var hdr [recordHeader]byte
			binary.LittleEndian.PutUint32(hdr[0:], ^uint32(0)) // dest 2^32−1
			binary.LittleEndian.PutUint32(hdr[8:], 0)          // zero-length payload
			return hdr[:]
		}(), WantDelivered: 0, WantErrors: 1},
		{Name: "valid-then-truncated", Payload: append(Envelope(valid), 1, 2, 3),
			WantDelivered: 1, WantErrors: 1},
		{Name: "valid-then-oversized", Payload: append(Envelope(valid), oversized()...),
			WantDelivered: 1, WantErrors: 1},
		{Name: "misrouted-between-valid", Payload: Envelope(
			valid,
			EnvRecord{Dest: 99, Payload: []byte("bad")},
			EnvRecord{Dest: 0, Payload: []byte("ok2")},
		), WantDelivered: 2, WantErrors: 1},
	}
}
