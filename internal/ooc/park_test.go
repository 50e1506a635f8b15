package ooc

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/pagecache"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// pageVisitor reads its vertex's adjacency through the out-of-core store and
// pushes nothing.
type pageVisitor struct{ v graph.Vertex }

func (p pageVisitor) Vertex() graph.Vertex { return p.v }

type pageAlgo struct{ visits, targets int }

func (a *pageAlgo) PreVisit(pageVisitor) bool { return true }
func (a *pageAlgo) Visit(v pageVisitor, q *core.Queue[pageVisitor]) {
	a.visits++
	a.targets += len(q.OutEdges(v.v))
}
func (a *pageAlgo) Encode(v pageVisitor, buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v.v))
}
func (a *pageAlgo) Decode(buf []byte) pageVisitor {
	return pageVisitor{graph.Vertex(binary.LittleEndian.Uint64(buf))}
}

// countingPager counts Park calls, and runs before (once) between Step's
// lock-free checks and its batched Park call.
type countingPager struct {
	*Pager
	parks  int
	before func(rows []int)
}

func (p *countingPager) Park(rows []int, keys []int64) {
	p.parks++
	if p.before != nil {
		p.before(rows)
		p.before = nil
	}
	p.Pager.Park(rows, keys)
}

// TestQueueBatchedParking drives a visitor queue over a real pager on a gated
// device, one page per row and 8 frames:
//   - a Step slice makes one Park call for all its misses;
//   - a row whose page completes between the lock-free check and that call
//     runs in the same Step;
//   - a row parked on an already-queued page adds no fetch and drains later;
//   - every park is unparked;
//   - a warm park → Drain → Unpark → Release cycle allocates nothing.
func TestQueueBatchedParking(t *testing.T) {
	const n, deg = 64, 32 // 32 targets = one 256-byte page per row
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for j := 1; j <= deg; j++ {
			edges = append(edges, graph.Edge{Src: graph.Vertex(v), Dst: graph.Vertex((v + j) % n)})
		}
	}
	gate := make(chan struct{}, n)
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, edges, n)
		if err != nil {
			t.Error(err)
			return
		}
		st, err := Externalize(part, Config{
			ResidentFraction: 1.0 / 8, PageSize: 256, Latency: time.Microsecond,
			WrapDevice: func(d pagecache.BlockDevice) pagecache.BlockDevice {
				return &gateDev{BlockDevice: d, gate: gate}
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Restore()
		topo, err := mailbox.ByName("1d", 1)
		if err != nil {
			t.Error(err)
			return
		}
		det := termination.New(r)
		algo := &pageAlgo{}
		pager := &countingPager{Pager: st.Pager()}
		q := core.NewQueue[pageVisitor](r, part, algo, nil, pager, mailbox.New(r, topo, det), det, 0)
		drain := func() bool {
			deadline := time.Now().Add(5 * time.Second)
			for !q.LocalIdle() {
				pages := pager.Drain()
				q.Unpark(pages)
				pager.Release(pages)
				if time.Now().After(deadline) {
					return false
				}
				runtime.Gosched()
			}
			return true
		}

		// Rows 0 and 1 are cold; row 0's page loads between the checks and
		// the batched call.
		pager.before = func(rows []int) {
			gate <- struct{}{}
			part.CSR.Row(rows[0])
		}
		q.Push(pageVisitor{0})
		q.Push(pageVisitor{1})
		q.Step(8)
		if s := q.Stats(); pager.parks != 1 || s.Executed != 1 || s.Parked != 1 {
			t.Errorf("first slice: %d Park calls, executed %d, parked %d; want 1, 1, 1",
				pager.parks, s.Executed, s.Parked)
		}
		// A second visitor for row 1 parks on its still-queued page.
		q.Push(pageVisitor{1})
		q.Step(8)
		if s, d := q.Stats(), st.Stats().DemandFetches; s.Parked != 2 || d != 1 {
			t.Errorf("second slice: parked %d with %d demand fetches; want 2 on 1", s.Parked, d)
		}
		gate <- struct{}{}
		if !drain() {
			t.Error("parked visitors never drained")
			return
		}
		if s := q.Stats(); s.Unparked != s.Parked || algo.visits != 3 || algo.targets != 3*deg {
			t.Errorf("after drain: parked %d, unparked %d, visits %d over %d targets",
				s.Parked, s.Unparked, algo.visits, algo.targets)
		}

		// Warm cycles: rows rotate over 2..n-1, so each one's page was
		// evicted long before it comes round again and every cycle parks.
		next := 2
		cycle := func() {
			q.Push(pageVisitor{graph.Vertex(next)})
			next = 2 + (next-1)%(n-2)
			q.Step(8)
			gate <- struct{}{}
			if !drain() {
				panic("parked visitor never drained")
			}
		}
		for i := 0; i < n; i++ {
			cycle()
		}
		before := q.Stats().Parked
		allocs := testing.AllocsPerRun(50, cycle)
		if parked := q.Stats().Parked - before; parked != 51 {
			t.Errorf("%d of 51 warm cycles parked", parked)
		}
		if s := q.Stats(); s.Unparked != s.Parked {
			t.Errorf("parked %d, unparked %d", s.Parked, s.Unparked)
		}
		if allocs != 0 && !raceEnabled {
			t.Errorf("a warm park → Drain → Unpark → Release cycle allocates %v times", allocs)
		}
	})
}
