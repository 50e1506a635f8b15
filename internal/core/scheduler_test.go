package core_test

import (
	"testing"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/algos/pagerank"
	"havoqgt/internal/algos/sssp"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/mailbox"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
	"havoqgt/internal/termination"
)

// lessOnly orders by Less and declares nothing else.
type lessOnly struct{ cc.CC }

func onCalendar[V core.Visitor](r *rt.Rank, part *partition.Part, algo core.Algorithm[V]) bool {
	det := termination.New(r)
	topo, _ := mailbox.ByName("1d", r.Size())
	return core.NewQueue[V](r, part, algo, core.Config{}, nil, nil, mailbox.New(r, topo, det), det, 0).OnCalendar()
}

// TestSchedulerChoice: NewQueue picks the local scheduler from what the
// algorithm declares and nothing else. Ordered by a small integer (BFS levels,
// SSSP's ⌊Dist/Δ⌋): the calendar, keyed by it. No order at all (k-core,
// PageRank, triangles): the same calendar with one bucket — a FIFO. Ordered by
// Less alone (cc, a toy): the heap.
func TestSchedulerChoice(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}), 4)
		if err != nil {
			t.Error(err)
			return
		}
		b, s := bfs.New(part), sssp.New(part, 1)
		k, p, tr := kcore.New(part, 2), pagerank.New(part, 2), triangle.New(part, triangle.Options{})
		for name, got := range map[string]bool{
			"bfs":       onCalendar[bfs.Visitor](r, part, b),
			"sssp":      onCalendar[sssp.Visitor](r, part, s),
			"kcore":     onCalendar[kcore.Visitor](r, part, k),
			"pagerank":  onCalendar[pagerank.Visitor](r, part, p),
			"triangles": onCalendar[triangle.Visitor](r, part, tr),
		} {
			if !got {
				t.Errorf("%s runs on the heap", name)
			}
		}
		if onCalendar[cc.Visitor](r, part, cc.New(part)) || onCalendar[cc.Visitor](r, part, &lessOnly{}) {
			t.Error("an algorithm that orders by Less alone runs on the calendar")
		}

		if b.Bucket(bfs.Visitor{Length: 3}) >= b.Bucket(bfs.Visitor{Length: 4}) {
			t.Error("bfs buckets do not follow the level")
		}
		if s.Bucket(sssp.Visitor{Dist: 1}) >= s.Bucket(sssp.Visitor{Dist: 1 + sssp.Delta}) {
			t.Error("sssp buckets do not follow the distance")
		}
		if k.Bucket(kcore.Visitor{V: 1}) != k.Bucket(kcore.Visitor{V: 2}) ||
			p.Bucket(pagerank.Visitor{V: 1, Iter: 0}) != p.Bucket(pagerank.Visitor{V: 2, Iter: 1, Kind: 1}) ||
			tr.Bucket(triangle.Visitor{V: 1}) != tr.Bucket(triangle.Visitor{V: 2, Second: 1}) {
			t.Error("an unordered algorithm spreads its visitors over more than one bucket")
		}
	})
}
