package core

import (
	"sort"
	"testing"
	"testing/quick"

	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/xrand"
)

// heapHarness exposes the queue's heap for property testing without a
// traversal.
func newHeapHarness(locality bool) *Queue[orderVisitor] {
	return &Queue[orderVisitor]{algo: &orderAlgo{}, localityOrder: locality}
}

// TestQuickHeapPopsSorted: for any push sequence, pops come out
// non-decreasing under the algorithm's Less, and with the locality
// tie-break, equal priorities come out in vertex order.
func TestQuickHeapPopsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		q := newHeapHarness(true)
		for i := 0; i+1 < len(raw); i += 2 {
			q.heapPush(orderVisitor{v: graph.Vertex(raw[i] % 64), prio: uint32(raw[i+1] % 8)})
		}
		var out []orderVisitor
		for len(q.heap) > 0 {
			out = append(out, q.heapPop())
		}
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			if a.prio > b.prio {
				return false
			}
			if a.prio == b.prio && a.v > b.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHeapIsPermutation: pops return exactly the pushed multiset.
func TestQuickHeapIsPermutation(t *testing.T) {
	f := func(raw []uint16) bool {
		q := newHeapHarness(false)
		var in []orderVisitor
		for i := 0; i+1 < len(raw); i += 2 {
			v := orderVisitor{v: graph.Vertex(raw[i]), prio: uint32(raw[i+1])}
			in = append(in, v)
			q.heapPush(v)
		}
		var out []orderVisitor
		for len(q.heap) > 0 {
			out = append(out, q.heapPop())
		}
		if len(in) != len(out) {
			return false
		}
		key := func(o orderVisitor) uint64 { return uint64(o.prio)<<32 | uint64(o.v) }
		sort.Slice(in, func(i, j int) bool { return key(in[i]) < key(in[j]) })
		sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGhostLookupMatchesMap: for any table of distinct vertices — a
// handful, the paper's 256, or the tens of thousands a covering table holds —
// scattered over the id space or clustered in a small range, the
// open-addressed probe answers exactly as a map from vertex to index does,
// and returns the owner table's master rank — for members, their neighbours
// and arbitrary non-members alike.
func TestQuickGhostLookupMatchesMap(t *testing.T) {
	const n = 1 << 20
	owners, err := partition.NewOwnerTable([]uint64{0, 1000, 1000, n / 3, n - 7, n})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 2, 3, 200, 256, 257, 5000, 20_000, 33_000}
	f := func(seed uint64, sizeSel uint16, clustered bool) bool {
		rng := xrand.New(seed)
		size, span := sizes[int(sizeSel)%len(sizes)], uint64(n)
		if clustered {
			span = uint64(2*size + 16)
		}
		want := make(map[graph.Vertex]int, size)
		vertices := make([]graph.Vertex, 0, size)
		for len(vertices) < size {
			v := graph.Vertex(rng.Uint64n(span))
			if _, dup := want[v]; !dup {
				want[v] = len(vertices)
				vertices = append(vertices, v)
			}
		}
		gt := newGhostTable(owners, vertices)
		if gt.Len() != len(vertices) {
			return false
		}
		probes := []graph.Vertex{0, graph.Nil, graph.Vertex(rng.Uint64())}
		for _, v := range vertices {
			probes = append(probes, v, v+1, v-1)
		}
		for _, v := range probes {
			wi, wok := want[v]
			gi, owner, gok := gt.Lookup(v)
			if gok != wok || gi != wi || (gok && owner != owners.Master(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// bucketAlgo schedules orderVisitors on the calendar, one bucket per prio.
type bucketAlgo struct{ orderAlgo }

func (a *bucketAlgo) Bucket(v orderVisitor) uint64 { return uint64(v.prio) }

// TestQuickCalendarPopsLowestBucketInArrivalOrder: under any interleaving of
// pushes and pops, the calendar pops from the lowest non-empty bucket, and
// within a bucket in arrival order — pushes that land in the bucket being
// drained included.
func TestQuickCalendarPopsLowestBucketInArrivalOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newCalendar[orderVisitor](&bucketAlgo{})
		model := map[uint32][]orderVisitor{}
		queued := 0
		for i, op := range ops {
			if op < 160 || queued == 0 {
				v := orderVisitor{v: graph.Vertex(i), prio: uint32(op % 5)}
				c.push(v)
				model[v.prio] = append(model[v.prio], v)
				queued++
				continue
			}
			lowest := uint32(0)
			for len(model[lowest]) == 0 {
				lowest++
			}
			if got := c.pop(); got != model[lowest][0] {
				return false
			}
			model[lowest] = model[lowest][1:]
			queued--
		}
		return c.n == queued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
