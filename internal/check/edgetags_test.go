package check

import (
	"path/filepath"
	"testing"

	"havoqgt/internal/csr"
	"havoqgt/internal/extmem"
	"havoqgt/internal/generators"
	"havoqgt/internal/graph"
	"havoqgt/internal/ooc"
	"havoqgt/internal/partition"
	"havoqgt/internal/rt"
)

// TestEdgeTagsEveryPartitioner: the tag law holds on every rank of every
// partitioner's build of a scale-free graph, survives the trip out of core —
// ooc.Externalize to a real file, read back through the page cache — and the
// file that trip wrote verifies and reopens with the same words.
func TestEdgeTagsEveryPartitioner(t *testing.T) {
	gen := generators.NewGraph500(9, 42)
	layouts := []struct {
		name     string
		layout   partition.Layout
		simplify bool
	}{
		{"edgelist", partition.EdgeList, false},
		{"simple", partition.EdgeList, true},
		{"1d", partition.OneD, false},
		{"1d-simple", partition.OneD, true},
	}
	for _, c := range layouts {
		for _, p := range []int{1, 3, 8} {
			parts, err := partition.Build(rt.NewMachine(p), gen.NumVertices(), partition.Undirected(gen.GenerateChunk), c.layout, c.simplify)
			if err != nil {
				t.Fatal(err)
			}
			slots := 0
			for _, part := range parts {
				slots += len(part.SlotVertex)
				if err := Error(EdgeTags(part)); err != nil {
					t.Fatalf("%s/p=%d: %v", c.name, p, err)
				}
			}
			if p > 1 && slots == 0 {
				t.Fatalf("%s/p=%d: no rank has a remote slot: the graph tests nothing", c.name, p)
			}

			dir := t.TempDir()
			for rank, part := range parts {
				words := append(csr.MemTargets(nil), part.CSR.Targets().(csr.MemTargets)...)
				st, err := ooc.Externalize(part, ooc.Config{ResidentFraction: 0.25, PageSize: 64, Dir: dir, Rank: rank})
				if err != nil {
					t.Fatal(err)
				}
				if err := Error(EdgeTags(part)); err != nil {
					t.Fatalf("%s/p=%d out of core: %v", c.name, p, err)
				}
				file := filepath.Join(dir, "copy.hvqt")
				if err := extmem.WriteTargetsFile(file, words); err != nil {
					t.Fatal(err)
				}
				if err := extmem.VerifyTargetsFile(file); err != nil {
					t.Fatal(err)
				}
				reopened, err := extmem.OpenFileStore(file, 64, 4)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range reopened.Read(0, reopened.Len()) {
					if w != words[i] {
						t.Fatalf("%s/p=%d rank %d: word %d reopened as %#x, stored %#x", c.name, p, rank, i, uint64(w), uint64(words[i]))
					}
				}
				if err := reopened.Close(); err != nil {
					t.Fatal(err)
				}
				if err := st.Restore(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestEdgeTagsCatchesWrongTags: each way a word can lie is a violation.
func TestEdgeTagsCatchesWrongTags(t *testing.T) {
	gen := generators.NewGraph500(8, 7)
	build := func() (*partition.Part, csr.MemTargets) {
		parts := make([]*partition.Part, 2)
		rt.NewMachine(2).Run(func(r *rt.Rank) {
			part, err := partition.BuildEdgeList(r, graph.Undirect(gen.GenerateChunk(r.Rank(), 2)), gen.NumVertices())
			if err != nil {
				panic(err)
			}
			parts[r.Rank()] = part
		})
		return parts[0], parts[0].CSR.Targets().(csr.MemTargets)
	}
	find := func(mem csr.MemTargets, ok func(csr.Target) bool) int {
		for i, w := range mem {
			if ok(w) {
				return i
			}
		}
		t.Fatal("the graph has no such edge: the test tests nothing")
		return 0
	}
	lies := map[string]func(*partition.Part, csr.MemTargets){
		"local bit on a remote target": func(_ *partition.Part, mem csr.MemTargets) {
			i := find(mem, func(w csr.Target) bool { return !w.Local() })
			mem[i] = mem[i].AsLocal()
		},
		"local target left untagged": func(_ *partition.Part, mem csr.MemTargets) {
			i := find(mem, csr.Target.Local)
			mem[i] = csr.Target(mem[i].Vertex())
		},
		"repeated remote target left untagged": func(_ *partition.Part, mem csr.MemTargets) {
			i := find(mem, func(w csr.Target) bool { return w.Slot() >= 0 })
			mem[i] = csr.Target(mem[i].Vertex())
		},
		"slot of another vertex": func(part *partition.Part, mem csr.MemTargets) {
			i := find(mem, func(w csr.Target) bool { return w.Slot() == 0 })
			mem[i] = csr.Target(mem[i].Vertex()).WithSlot(1)
		},
		"wrong owner": func(part *partition.Part, _ csr.MemTargets) { part.SlotOwner[0] = 0 },
		"slots out of count order": func(part *partition.Part, mem csr.MemTargets) {
			last := len(part.SlotVertex) - 1
			part.SlotVertex[0], part.SlotVertex[last] = part.SlotVertex[last], part.SlotVertex[0]
			part.SlotOwner[0], part.SlotOwner[last] = part.SlotOwner[last], part.SlotOwner[0]
			for i, w := range mem {
				switch w.Slot() {
				case 0:
					mem[i] = csr.Target(w.Vertex()).WithSlot(last)
				case last:
					mem[i] = csr.Target(w.Vertex()).WithSlot(0)
				}
			}
		},
	}
	for name, lie := range lies {
		part, mem := build()
		if err := Error(EdgeTags(part)); err != nil {
			t.Fatal(err)
		}
		lie(part, mem)
		if len(EdgeTags(part)) == 0 {
			t.Errorf("%s: no violation", name)
		}
	}
}
