package core

import "slices"

// parkedPageCap is the capacity a page's parked slice starts with: a
// scale-15 BFS at 1/8 resident parks ≈ 24 visitors per fetched page, so
// starting at one would regrow each page's slice five times a query.
const parkedPageCap = 16

// Parking holds one query's work on one rank that waits for adjacency pages
// out of core: the visitor queue's visitors, SSSP's frontier rows. A slice
// of work checks each row against the pager's residency bits, notes its
// misses (Miss) and hands them to the pager in one RowPager.Park call
// (Park), which enqueues their demand fetches; each entry then waits on its
// page until the rank loop drains the page and the owner takes the page's
// entries (Take). It counts what it parked and what it gave back, the
// core.parked and core.unparked of its owner's Stats.
type Parking[T any] struct {
	pager RowPager
	// pages holds the entries waiting on each page key; each page's slice
	// keeps its capacity across takes. n is maintained alongside so idle
	// checks are O(1).
	pages [][]T
	n     int
	// One slice's misses — rows, their entries, and the park keys
	// RowPager.Park returns for them — reused across slices.
	missRows []int
	missed   []T
	missKeys []int64

	Parked, Unparked uint64
}

// NewParking returns the parking for work that reads its rows through pager.
func NewParking[T any](pager RowPager) Parking[T] { return Parking[T]{pager: pager} }

// Miss holds x, whose row the pager found not resident, for the next Park.
func (p *Parking[T]) Miss(row int, x T) {
	p.missRows = append(p.missRows, row)
	p.missed = append(p.missed, x)
}

// Park hands the misses held since the last Park to the pager in one call
// and parks each entry on the page key it returns. It returns the entries
// whose rows turned out resident after all, for the caller to run now; the
// slice is valid until the next Miss.
func (p *Parking[T]) Park() []T {
	n := len(p.missRows)
	if n == 0 {
		return nil
	}
	p.missKeys = slices.Grow(p.missKeys[:0], n)[:n]
	p.pager.Park(p.missRows, p.missKeys)
	run := p.missed[:0]
	for i, key := range p.missKeys {
		x := p.missed[i]
		if key < 0 {
			run = append(run, x)
			continue
		}
		if int(key) >= len(p.pages) {
			p.pages = slices.Grow(p.pages, int(key)+1-len(p.pages))[:key+1]
		}
		if p.pages[key] == nil {
			p.pages[key] = make([]T, 0, parkedPageCap)
		}
		p.pages[key] = append(p.pages[key], x)
		p.n++
		p.Parked++
	}
	clear(p.missed[len(run):])
	p.missRows, p.missed = p.missRows[:0], p.missed[:0]
	return run
}

// Take removes the entries parked on page pg and returns them (none for a
// key nothing waits on). The slice is the page's own: its entries must be
// run before anything parks again.
func (p *Parking[T]) Take(pg int64) []T {
	if pg < 0 || pg >= int64(len(p.pages)) || len(p.pages[pg]) == 0 {
		return nil
	}
	xs := p.pages[pg]
	p.pages[pg] = xs[:0]
	p.n -= len(xs)
	p.Unparked += uint64(len(xs))
	return xs
}

// Len returns how many entries are parked.
func (p *Parking[T]) Len() int { return p.n }

// Clear drops every parked entry: their demand fetches may still complete,
// but the pages simply age out of the cache.
func (p *Parking[T]) Clear() {
	clear(p.pages)
	p.n = 0
}
