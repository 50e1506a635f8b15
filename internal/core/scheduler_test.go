package core_test

import (
	"testing"

	"havoqgt/internal/algos/bfs"
	"havoqgt/internal/algos/cc"
	"havoqgt/internal/algos/kcore"
	"havoqgt/internal/algos/triangle"
	"havoqgt/internal/core"
	"havoqgt/internal/graph"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

func declaresOrder[V core.Visitor](algo core.Algorithm[V]) bool {
	_, ok := algo.(core.BucketAlgorithm[V])
	return ok
}

// TestSchedulerChoice: BucketAlgorithm is the one order declaration. BFS keys
// the calendar by a small integer, the level; cc, k-core and triangle
// counting declare no order and drain one FIFO bucket. SSSP and PageRank run
// no visitor queue (they run in counted rounds), so they have no row.
func TestSchedulerChoice(t *testing.T) {
	rt.NewMachine(1).Run(func(r *rt.Rank) {
		part, err := partition.BuildEdgeList(r, graph.Undirect([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}), 4)
		if err != nil {
			t.Error(err)
			return
		}
		b := bfs.New(part)
		for name, ok := range map[string]bool{
			"bfs":       declaresOrder[bfs.Visitor](b),
			"cc":        !declaresOrder[cc.Visitor](cc.New(part)),
			"kcore":     !declaresOrder[kcore.Visitor](kcore.New(part, 2, nil, nil)),
			"triangles": !declaresOrder[triangle.Visitor](triangle.New(part, triangle.Options{})),
		} {
			if !ok {
				t.Errorf("%s: the order it declares is not the one it needs", name)
			}
		}

		if b.Bucket(bfs.Visitor{Length: 3}) >= b.Bucket(bfs.Visitor{Length: 4}) {
			t.Error("bfs buckets do not follow the level")
		}
	})
}
