// Fuzz targets for the message plane. Seed corpora live under
// testdata/fuzz/<Target>/ (the committed regression corpus); CI runs each
// target briefly via `make fuzz-smoke`.
package mailbox_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"havoqgt/internal/check"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/rt"
)

const fuzzRanks = 3 // matches check.HostileCorpusRanks

// refDecode is an independent reimplementation of the hardened envelope
// decoding rules, used as the differential oracle for FuzzEnvelopeDecode.
// It returns the payloads deliverable to rank `self` of a size-p machine,
// the number of records that must be re-forwarded, and the number of decode
// errors.
func refDecode(p []byte, size, self int) (deliver [][]byte, forwarded int, errs uint64) {
	const hdr = 16 // [finalDest u32][tag u32][width u32][count u32]
	for len(p) > 0 {
		if len(p) < hdr {
			return deliver, forwarded, errs + 1
		}
		dest := uint64(binary.LittleEndian.Uint32(p[0:]))
		width := uint64(binary.LittleEndian.Uint32(p[8:]))
		count := uint64(binary.LittleEndian.Uint32(p[12:]))
		if width*count > uint64(len(p)-hdr) {
			return deliver, forwarded, errs + 1
		}
		body := p[hdr : hdr+width*count]
		p = p[hdr+width*count:]
		switch {
		case dest >= uint64(size), count == 0, width == 0 && count > 1:
			errs++
		case dest == uint64(self):
			for i := uint64(0); i < count; i++ {
				deliver = append(deliver, append([]byte(nil), body[i*width:(i+1)*width]...))
			}
		default:
			forwarded += int(count)
		}
	}
	return deliver, forwarded, errs
}

// FuzzEnvelopeDecode feeds arbitrary bytes to Box.Poll as a transport
// envelope. Poll must never panic, must agree with the independent reference
// decoder on deliveries/forwards/errors, and delivered payloads must be
// exclusive copies (mutating the envelope afterwards cannot change them).
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add([]byte{})
	for _, h := range check.HostileCorpus() {
		f.Add(h.Payload)
	}
	f.Add(check.Envelope(
		check.EnvRecord{Dest: 0, Payload: []byte("self")},
		check.EnvRecord{Dest: 0, Payload: []byte("more")},
		check.EnvRecord{Dest: 1, Payload: []byte("forward")},
		check.EnvRecord{Dest: 2, Payload: bytes.Repeat([]byte{0xAB}, 64)},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		wantDeliver, wantForward, wantErrs := refDecode(data, fuzzRanks, 0)
		// Two identical rounds through one Box. Round 1 exercises the cold
		// decode path; between rounds the consumed envelope is recycled into
		// the box's buffer pool (and scribbled over by the test while
		// pool-resident), and FlushAll clears the aggregation buffers — so
		// round 2 decodes into forwarding buffers drawn from poisoned pooled
		// memory. Both rounds must agree exactly with the reference decoder.
		rounds := make([][]mailbox.Record, 2)
		var st mailbox.Stats
		m := rt.NewMachine(fuzzRanks)
		m.Run(func(r *rt.Rank) {
			if r.Rank() != 0 {
				return
			}
			box := mailbox.New(r, mailbox.NewDirect(fuzzRanks), nil, mailbox.WithFlushBytes(1<<30))
			for round := 0; round < 2; round++ {
				envelope := append([]byte(nil), data...)
				r.Send(0, rt.KindMailbox, 0, envelope)
				recs := box.Poll()
				if got := box.PendingRecords(); got != wantForward {
					t.Fatalf("round %d: PendingRecords = %d, want %d forwarded-in-buffer",
						round, got, wantForward)
				}
				// Delivered payloads must not alias the envelope: scribbling
				// over it after Poll cannot alter them. (After round 1 this
				// also poisons the pooled copy of the envelope buffer.)
				for i := range envelope {
					envelope[i] = 0xFF
				}
				// Records expire at the box's next Poll, so snapshot copies
				// for the cross-round comparison below.
				for _, rec := range recs {
					rounds[round] = append(rounds[round], mailbox.Record{
						Tag:     rec.Tag,
						Payload: append([]byte(nil), rec.Payload...),
					})
				}
				// Ship the parked forwards so round 2's enqueues draw fresh
				// buffers from the (poisoned) pool.
				box.FlushAll()
			}
			st = box.Stats()
		})
		for round, recs := range rounds {
			if len(recs) != len(wantDeliver) {
				t.Fatalf("round %d: delivered %d records, reference decoder says %d",
					round, len(recs), len(wantDeliver))
			}
			for i, rec := range recs {
				if !bytes.Equal(rec.Payload, wantDeliver[i]) {
					t.Fatalf("round %d: record %d = %x, want %x (aliasing or framing bug)",
						round, i, rec.Payload, wantDeliver[i])
				}
			}
		}
		if st.RecordsForwarded != uint64(2*wantForward) {
			t.Fatalf("RecordsForwarded = %d, want %d", st.RecordsForwarded, uint64(2*wantForward))
		}
		if st.DecodeErrors != 2*wantErrs {
			t.Fatalf("DecodeErrors = %d, want %d", st.DecodeErrors, 2*wantErrs)
		}
	})
}

// FuzzTopologyRoute checks, for arbitrary (p, from, dest) and every
// topology, that repeated NextHop application reaches dest within the
// topology's diameter, never leaves [0, p), and never stalls.
func FuzzTopologyRoute(f *testing.F) {
	f.Add(uint16(16), uint16(11), uint16(5))   // paper Figure 4 route
	f.Add(uint16(1), uint16(0), uint16(0))     // single rank
	f.Add(uint16(17), uint16(16), uint16(3))   // prime p: ragged grids
	f.Add(uint16(27), uint16(26), uint16(0))   // perfect cube
	f.Add(uint16(510), uint16(13), uint16(77)) // large non-square
	f.Fuzz(func(t *testing.T, pSel, fromSel, destSel uint16) {
		p := int(pSel)%512 + 1
		from := int(fromSel) % p
		dest := int(destSel) % p
		if from == dest {
			return
		}
		for _, topo := range []mailbox.Topology{
			mailbox.NewDirect(p), mailbox.NewGrid2D(p), mailbox.NewGrid3D(p),
		} {
			cur, hops := from, 0
			for cur != dest {
				next := topo.NextHop(cur, dest)
				if next < 0 || next >= p {
					t.Fatalf("%s p=%d: NextHop(%d,%d) = %d out of range", topo.Name(), p, cur, dest, next)
				}
				if next == cur {
					t.Fatalf("%s p=%d: NextHop(%d,%d) did not advance", topo.Name(), p, cur, dest)
				}
				cur = next
				hops++
				if hops > topo.Diameter() {
					t.Fatalf("%s p=%d: route %d->%d exceeded diameter %d", topo.Name(), p, from, dest, topo.Diameter())
				}
			}
		}
	})
}
