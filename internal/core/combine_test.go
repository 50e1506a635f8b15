package core_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"havoqgt/internal/check"
	"havoqgt/internal/core"
	"havoqgt/internal/csr"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
	"havoqgt/internal/xrand"
)

// countVisitor carries n counts to a vertex; countAlgo's masters add them up.
type countVisitor struct {
	v graph.Vertex
	n uint32
}

func (c countVisitor) Vertex() graph.Vertex { return c.v }

// countAlgo is a counted algorithm whose Combine refuses one merge in four at
// random, so held visitors are also sent early and replaced.
type countAlgo struct {
	rng *xrand.Rand
	got uint64 // counts delivered to this rank's masters
}

func (a *countAlgo) PreVisit(v countVisitor) bool                  { a.got += uint64(v.n); return false }
func (a *countAlgo) Visit(countVisitor, *core.Queue[countVisitor]) {}
func (a *countAlgo) Combine(acc *countVisitor, v countVisitor) bool {
	if a.rng.Intn(4) == 0 {
		return false
	}
	acc.n += v.n
	return true
}
func (a *countAlgo) Encode(v countVisitor, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.v))
	return binary.LittleEndian.AppendUint32(buf, v.n)
}
func (a *countAlgo) Decode(buf []byte) countVisitor {
	return countVisitor{v: graph.Vertex(binary.LittleEndian.Uint64(buf)), n: binary.LittleEndian.Uint32(buf[8:])}
}

// TestQuickCombinerContract drives a toy CombineAlgorithm with random push
// streams along random stored edges, under a random ghost cap, on a few ranks
// with a minimal rank loop, and asserts the combiner's contract: every count
// pushed is delivered exactly once; Combined == Pushed − Local − records sent;
// LocalIdle is false while anything is held; Step on an empty scheduler sends
// what is held and reports progress; and a queue cancelled while holding
// visitors discards them and still quiesces under check.QueryConservation.
func TestQuickCombinerContract(t *testing.T) {
	var combined uint64
	f := func(seed uint64, ranks, capSel uint8, cancel bool) bool {
		c, err := runCombiner(seed, 2+int(ranks%3), []int{1, 4, core.DefaultGhostsPerPartition}[capSel%3], cancel)
		if err != nil {
			t.Log(err)
			return false
		}
		combined += c
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if combined == 0 {
		t.Fatal("no push was combined: the streams test nothing")
	}
}

// runCombiner runs one stream and returns how many pushes were combined.
func runCombiner(seed uint64, p, ghostCap int, cancel bool) (uint64, error) {
	const n = 48
	rng := xrand.New(seed)
	edges := make([]graph.Edge, 400)
	for i := range edges {
		d := rng.Uint64n(n) // squared draws skew the targets, so ranks repeat them
		edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(d * d / n)}
	}
	topo, err := mailbox.ByName("2d", p)
	if err != nil {
		return 0, err
	}
	stats := make([]core.Stats, p)
	pushed, got := make([]uint64, p), make([]uint64, p)
	errs := make([]error, p)
	rt.NewMachine(p).Run(func(r *rt.Rank) {
		var local []graph.Edge
		for i, e := range edges {
			if i%p == r.Rank() {
				local = append(local, e)
			}
		}
		part, err := partition.BuildEdgeList(r, local, n)
		if err != nil {
			panic(err)
		}
		var targets []csr.Target
		for row := 0; row < part.CSR.NumRows(); row++ {
			targets = append(targets, part.CSR.Row(row)...)
		}
		det := termination.New(r)
		box := mailbox.New(r, topo, det)
		algo := &countAlgo{rng: xrand.New(seed ^ uint64(r.Rank()+1))}
		q := core.NewQueue[countVisitor](r, part, algo, core.BuildGhostTable(part, ghostCap), nil, box, det, 0)

		fail := func(format string, args ...any) {
			if errs[r.Rank()] == nil {
				errs[r.Rank()] = fmt.Errorf("seed %d p=%d cap=%d cancel=%v rank %d: %s",
					seed, p, ghostCap, cancel, r.Rank(), fmt.Sprintf(format, args...))
			}
		}
		held := func() uint64 {
			st := q.Stats()
			return st.Pushed - st.Local - st.Combined - box.Stats().RecordsSent
		}
		for i := xrand.Mix64(seed+uint64(r.Rank())) % 300; i > 0 && len(targets) > 0; i-- {
			t := targets[xrand.Mix64(seed^(i*uint64(p)+uint64(r.Rank())))%uint64(len(targets))]
			q.PushEdge(t, countVisitor{v: t.Vertex(), n: 1})
			if held() > 0 && q.LocalIdle() {
				fail("idle with %d visitors held", held())
			}
		}
		pushed[r.Rank()] = q.Stats().Pushed
		switch {
		case cancel:
			q.Cancel()
			if !q.LocalIdle() {
				fail("cancelled queue not idle")
			}
		case held() > 0:
			if !q.Step(8) {
				fail("Step on an empty scheduler with %d visitors held reported no progress", held())
			}
			if h := held(); h != 0 || !q.LocalIdle() {
				fail("Step left %d visitors held (idle %v)", h, q.LocalIdle())
			}
		}
		for {
			q.Step(64)
			for _, rec := range box.Poll() {
				q.Deliver(rec)
			}
			box.FlushAll()
			if q.PumpTermination(q.LocalIdle()) {
				break
			}
		}
		stats[r.Rank()] = q.Stats()
		stats[r.Rank()].Mailbox = box.Stats()
		got[r.Rank()] = algo.got
	})
	var sumPushed, sumGot, combined uint64
	for rank, s := range stats {
		sumPushed += pushed[rank]
		sumGot += got[rank]
		combined += s.Combined
	}
	for _, err := range errs {
		if err != nil {
			return combined, err
		}
	}
	if err := check.Error(check.QueryConservation(stats)); err != nil || cancel {
		return combined, err
	}
	if err := check.Error(check.Traversal(topo, stats)); err != nil {
		return combined, err
	}
	for rank, s := range stats {
		if s.Combined != s.Pushed-s.Local-s.Mailbox.RecordsSent {
			return combined, fmt.Errorf("seed %d rank %d: combined %d != pushed %d − local %d − records %d",
				seed, rank, s.Combined, s.Pushed, s.Local, s.Mailbox.RecordsSent)
		}
	}
	if sumGot != sumPushed {
		return combined, fmt.Errorf("seed %d: masters counted %d, %d pushed", seed, sumGot, sumPushed)
	}
	return combined, nil
}
