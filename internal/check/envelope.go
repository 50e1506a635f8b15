package check

import "encoding/binary"

// envelope framing constants, mirroring internal/mailbox: an envelope is a
// sequence of runs, each [finalDest u32][tag u32][width u32][count u32]
// followed by count×width payload bytes. Kept in sync by
// TestEnvelopeFramingMatchesMailbox.
const runHeader = 16

// EnvRecord is one record to frame into a synthetic envelope.
type EnvRecord struct {
	Dest    int
	Tag     uint32 // record namespace (query ID); 0 = untagged (Box.Send)
	Payload []byte
}

// Envelope frames records exactly as a mailbox stages them, for injecting
// synthetic (well-formed) envelopes into a Box under test: a record joins
// the run before it when both have its destination, tag and non-zero width,
// and opens a run of its own otherwise.
func Envelope(records ...EnvRecord) []byte {
	var buf []byte
	at := 0 // offset of the open run's count field
	for i, rec := range records {
		if i > 0 && joins(records[i-1], rec) {
			binary.LittleEndian.PutUint32(buf[at:], binary.LittleEndian.Uint32(buf[at:])+1)
		} else {
			buf = RunHeader(buf, uint32(rec.Dest), rec.Tag, uint32(len(rec.Payload)), 1)
			at = len(buf) - 4
		}
		buf = append(buf, rec.Payload...)
	}
	return buf
}

// joins reports whether record b continues the run record a is in.
func joins(a, b EnvRecord) bool {
	return a.Dest == b.Dest && a.Tag == b.Tag && len(a.Payload) == len(b.Payload) && len(b.Payload) != 0
}

// RunHeader appends one raw run header to buf. What follows it is the
// caller's: a well-formed run carries count×width payload bytes, a hostile
// one need not.
func RunHeader(buf []byte, dest, tag, width, count uint32) []byte {
	for _, f := range [...]uint32{dest, tag, width, count} {
		buf = binary.LittleEndian.AppendUint32(buf, f)
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
// bodies running past the envelope (a count×width product that wraps 32
// bits among them), forged counts, zero-width records, misrouted
// destinations, and combinations burying valid runs around the damage.
// Every entry must be decoded by Box.Poll on rank 0 of a
// HostileCorpusRanks-rank machine without panicking, with exactly the listed
// deliveries and decode errors.
func HostileCorpus() []HostileEnvelope {
	valid := EnvRecord{Dest: 0, Payload: []byte("ok")}
	oversized := append(RunHeader(nil, 0, 0, 0xFFFF, 1), 'x', 'y') // claims 65535 payload bytes, carries 2
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return []HostileEnvelope{
		{Name: "empty", Payload: []byte{}, WantDelivered: 0, WantErrors: 0},
		{Name: "truncated-header", Payload: []byte{0, 0, 0}, WantDelivered: 0, WantErrors: 1},
		{Name: "truncated-header-one-short", Payload: RunHeader(nil, 0, 0, 0, 1)[:runHeader-1],
			WantDelivered: 0, WantErrors: 1},
		{Name: "oversized-length", Payload: oversized, WantDelivered: 0, WantErrors: 1},
		{Name: "oversized-length-max", Payload: RunHeader(nil, 0, 0, ^uint32(0), 1), // width 2^32−1
			WantDelivered: 0, WantErrors: 1},
		{Name: "run-past-envelope", Payload: append(RunHeader(nil, 0, 0, 4, 3), "eightbyt"...), // 12 bytes owed, 8 carried
			WantDelivered: 0, WantErrors: 1},
		{Name: "count-width-wraps-32-bits", Payload: append(RunHeader(nil, 0, 0, 1<<16, 1<<16+1), // 2^32+2^16 bytes owed
			make([]byte, 1<<16)...), WantDelivered: 0, WantErrors: 1},
		{Name: "zero-width-count-many", Payload: cat(RunHeader(nil, 0, 0, 0, ^uint32(0)), Envelope(valid)),
			WantDelivered: 1, WantErrors: 1},
		{Name: "zero-count", Payload: cat(RunHeader(nil, 0, 0, 4, 0), Envelope(valid)),
			WantDelivered: 1, WantErrors: 1},
		{Name: "zero-length-record", Payload: Envelope(EnvRecord{Dest: 0}), WantDelivered: 1, WantErrors: 0},
		{Name: "zero-length-records-never-share", Payload: Envelope(EnvRecord{Dest: 0}, EnvRecord{Dest: 0}),
			WantDelivered: 2, WantErrors: 0},
		{Name: "one-run-of-three", Payload: Envelope(valid, valid, valid), WantDelivered: 3, WantErrors: 0},
		{Name: "misrouted-dest", Payload: Envelope(EnvRecord{Dest: HostileCorpusRanks + 7, Payload: []byte("lost")}),
			WantDelivered: 0, WantErrors: 1},
		{Name: "misrouted-dest-huge", Payload: RunHeader(nil, ^uint32(0), 0, 0, 1), // dest 2^32−1, one empty record
			WantDelivered: 0, WantErrors: 1},
		{Name: "valid-then-truncated", Payload: append(Envelope(valid), 1, 2, 3),
			WantDelivered: 1, WantErrors: 1},
		{Name: "valid-then-oversized", Payload: cat(Envelope(valid), oversized),
			WantDelivered: 1, WantErrors: 1},
		{Name: "misrouted-between-valid", Payload: Envelope(
			valid, valid,
			EnvRecord{Dest: 99, Payload: []byte("bad")},
			EnvRecord{Dest: 99, Payload: []byte("bad")},
			EnvRecord{Dest: 0, Payload: []byte("ok2")},
		), WantDelivered: 3, WantErrors: 1},
	}
}
