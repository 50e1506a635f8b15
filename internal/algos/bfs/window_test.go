package bfs

import (
	"slices"
	"testing"

	"havoqgt/internal/core"
)

// pathPair is two DO machines, one per rank of pathParts, from vertex 0,
// whose sends queue for the other.
type pathPair struct {
	d     [2]*DO
	inbox [2][][]byte
}

func newPathPair() *pathPair {
	pp := &pathPair{}
	for r, part := range pathParts() {
		pp.d[r] = NewDO(part, 0, func(dest int, payload []byte) {
			pp.inbox[dest] = append(pp.inbox[dest], slices.Clone(payload))
		}, nil)
	}
	return pp
}

// step makes one move on rank r: advance it if it can, else hand it its
// oldest queued record.
func (pp *pathPair) step(r int) {
	if pp.d[r].TryAdvance() || len(pp.inbox[r]) == 0 {
		return
	}
	rec := pp.inbox[r][0]
	pp.inbox[r] = pp.inbox[r][1:]
	pp.d[r].Handle(rec)
}

// TestDODropsLevelsOutsideItsWindow: once rank 0 has merged level 3 and sent
// its level-4 contribution, and waits on rank 1's, a peer record naming level 0 (stale) or level 8
// (far ahead) leaves the machine as it was — no level accumulated, counted
// or allocated — and the traversal then finishes as it would have.
func TestDODropsLevelsOutsideItsWindow(t *testing.T) {
	hit, twin := newPathPair(), newPathPair()
	for i := 0; !(hit.d[0].level == 3 && hit.d[0].Idle()); i++ {
		if i > 1000 {
			t.Fatal("rank 0 never reached level 3")
		}
		hit.step(i % 2)
		twin.step(i % 2)
	}
	if !sameMachine(hit.d[0], twin.d[0]) {
		t.Fatal("two runs of the same moves differ")
	}

	word := func(level uint32) []byte {
		rec := core.AppendRoundHeader(nil, doKindLevel, 1, level)
		rec = append(rec, 1, 0, 0, 0) // one word
		rec = append(rec, 0, 0, 0, 0) // at index 0
		return append(rec, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	}
	stale, ahead := word(0), word(8)
	allocs := testing.AllocsPerRun(10, func() {
		hit.d[0].Handle(stale)
		hit.d[0].Handle(ahead)
	})
	if allocs != 0 {
		t.Errorf("dropping out-of-window levels allocated %v times", allocs)
	}
	if !sameMachine(hit.d[0], twin.d[0]) {
		t.Fatal("an out-of-window level changed the machine")
	}

	for i := 0; !hit.d[0].Done() || !hit.d[1].Done() || !twin.d[0].Done() || !twin.d[1].Done(); i++ {
		if i > 100000 {
			t.Fatal("the traversal did not finish")
		}
		hit.step(i % 2)
		twin.step(i % 2)
	}
	for r := range hit.d {
		if !slices.Equal(hit.d[r].Level, twin.d[r].Level) {
			t.Fatalf("rank %d finished with levels %v, undisturbed %v", r, hit.d[r].Level, twin.d[r].Level)
		}
	}
}
