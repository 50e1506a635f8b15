package core

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"havoqgt/internal/graph"
	"havoqgt/internal/xrand"
)

// TestQuickSlotPrefixMatchesTopK: the partition build's slot order is the
// ghost candidate order — remote targets with at least two local edges, by
// count descending then vertex — so for random graphs and every cap k the
// table BuildGhostTable returns holds exactly the vertices a count, sort and
// cut over the rank's edges selects, at the same indices, and the slot's owner
// is the owner table's master rank.
func TestQuickSlotPrefixMatchesTopK(t *testing.T) {
	f := func(seed uint64, ranks uint8) bool {
		rng := xrand.New(seed)
		n, p := uint64(96), 1+int(ranks%4)
		edges := make([]graph.Edge, 600)
		for i := range edges {
			// Squared draws skew the targets, so counts repeat and differ.
			d := rng.Uint64n(n)
			edges[i] = graph.Edge{Src: graph.Vertex(rng.Uint64n(n)), Dst: graph.Vertex(d * d / n)}
		}
		for _, part := range buildParts(t, edges, n, p) {
			counts := map[graph.Vertex]int{}
			for row := 0; row < part.CSR.NumRows(); row++ {
				for _, tgt := range part.CSR.Row(row) {
					if v := tgt.Vertex(); !part.IsMaster(v) {
						counts[v]++
					}
				}
			}
			var want []graph.Vertex
			for v, c := range counts {
				if c >= 2 {
					want = append(want, v)
				}
			}
			slices.SortFunc(want, func(a, b graph.Vertex) int {
				return cmp.Or(cmp.Compare(counts[b], counts[a]), cmp.Compare(a, b))
			})
			for _, k := range []int{-1, 0, 1, 64, 256, len(want), DefaultGhostsPerPartition} {
				got := BuildGhostTable(part, k).Vertices()
				if !slices.Equal(got, want[:min(max(k, 0), len(want))]) {
					return false
				}
				for i, v := range got {
					if int(part.SlotOwner[i]) != part.Master(v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCalendarPopsLowestBucketInArrivalOrder: under any interleaving of
// pushes, pops and cancels, the calendar pops from the lowest non-empty
// bucket, and within a bucket in arrival order — through the cached buckets
// too: pushes that land in the bucket being drained, pushes into a lower one
// (the open bucket must yield), and a clear mid-drain, which must leave no
// cached bucket behind and hand every backing array back to the free list.
func TestQuickCalendarPopsLowestBucketInArrivalOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newCalendar[orderVisitor](&orderAlgo{})
		model := map[uint32][]orderVisitor{}
		queued, made := 0, map[*bucket[orderVisitor]]bool{}
		for i, op := range ops {
			switch {
			case op >= 250:
				for _, s := range c.buckets {
					made[s] = true
				}
				c.clear()
				clear(model)
				queued = 0
				if c.open != nil || c.last != nil || len(c.buckets) != 0 || len(c.order) != 0 {
					return false
				}
			case op < 160 || queued == 0:
				v := orderVisitor{v: graph.Vertex(i), prio: uint32(op % 5)}
				c.push(v)
				model[v.prio] = append(model[v.prio], v)
				queued++
			default:
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
			if c.n != queued {
				return false
			}
		}
		// Every bucket a clear emptied is either on the free list or back in
		// use, reset.
		for _, s := range c.free {
			if len(s.vs) != 0 || s.head != 0 {
				return false
			}
			delete(made, s)
		}
		for _, s := range c.buckets {
			delete(made, s)
		}
		return len(made) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarCompactsLongLivedBucket: a bucket that never runs empty does not
// keep the visitors it has already handed out.
func TestCalendarCompactsLongLivedBucket(t *testing.T) {
	c := newCalendar[orderVisitor](&orderAlgo{})
	c.push(orderVisitor{})
	for i := 1; i <= 100*compactAt; i++ {
		c.push(orderVisitor{v: graph.Vertex(i)})
		if got := c.pop(); got.v != graph.Vertex(i-1) {
			t.Fatalf("pop %d returned vertex %d", i, got.v)
		}
	}
	if s := c.buckets[0]; c.n != 1 || cap(s.vs) > 4*compactAt {
		t.Fatalf("one visitor queued (n=%d) in a bucket of capacity %d", c.n, cap(s.vs))
	}
}
