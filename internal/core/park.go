package core

import "slices"

// parkedPageCap is the capacity a page's parked slice starts with: a
// scale-15 BFS at 1/8 resident parks ≈ 24 visitors per fetched page, so
// starting at one would regrow each page's slice five times a query.
const parkedPageCap = 16

// Parking holds one query's work on one rank that waits for adjacency pages
// out of core: the visitor queue's visitors, and the rows of every counted
// sweep (PageRank's, k-core's first peel, SSSP's frontier, direction-
// optimizing BFS's scans). A slice of work asks Absent of each row before it
// reads it, which holds the rows whose pages are absent, and then Park hands
// them to the pager in one RowPager.Park call, which enqueues their demand
// fetches; each entry then waits on its page until the rank loop drains the
// page and Unpark runs the page's entries. It counts what it parked and what
// it gave back, the core.parked and core.unparked of its owner's Stats.
// Without a pager every row is resident and nothing parks.
type Parking[T any] struct {
	pager RowPager
	run   func(T) // reads an entry's row; never calls Absent
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

// NewParking returns the parking for work that reads its rows through pager
// (nil: the adjacency is resident) and runs an entry with run.
func NewParking[T any](pager RowPager, run func(T)) Parking[T] {
	return Parking[T]{pager: pager, run: run}
}

// Absent reports whether row's pages are absent, and then holds x for the
// next Park: the caller skips x, which runs when Park or Unpark hands it
// back. A false return means the row can be read now.
func (p *Parking[T]) Absent(row int, x T) bool {
	return p.pager != nil && p.absent(row, x)
}

// absent is Absent with a pager, apart so that Absent inlines for none.
func (p *Parking[T]) absent(row int, x T) bool {
	if p.pager.Resident(row) {
		return false
	}
	p.Miss(row, x)
	return true
}

// Miss holds x, whose row the caller found absent itself, for the next Park.
func (p *Parking[T]) Miss(row int, x T) {
	p.missRows = append(p.missRows, row)
	p.missed = append(p.missed, x)
}

// Park hands the misses held since the last Park to the pager in one call,
// parks each entry on the page key it returns, and runs the entries whose
// rows turned out resident after all.
func (p *Parking[T]) Park() {
	n := len(p.missRows)
	if n == 0 {
		return
	}
	p.missKeys = slices.Grow(p.missKeys[:0], n)[:n]
	p.pager.Park(p.missRows, p.missKeys)
	for i, key := range p.missKeys {
		x := p.missed[i]
		if key < 0 {
			p.run(x)
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
	clear(p.missed)
	p.missRows, p.missed = p.missRows[:0], p.missed[:0]
}

// Unpark runs the entries parked on the given pages (a pager Drain batch,
// pinned resident until the rank loop releases it) at once and without a
// residency re-check (core.Queue.Unpark says why), and reports whether there
// were any. Running an entry parks nothing, so nothing joins a page's
// entries while they run.
func (p *Parking[T]) Unpark(pages []int64) bool {
	if p.n == 0 {
		return false
	}
	any := false
	for _, pg := range pages {
		if pg < 0 || pg >= int64(len(p.pages)) || len(p.pages[pg]) == 0 {
			continue
		}
		xs := p.pages[pg]
		p.pages[pg] = xs[:0]
		p.n -= len(xs)
		p.Unparked += uint64(len(xs))
		for _, x := range xs {
			p.run(x)
		}
		clear(xs)
		any = true
	}
	return any
}

// Len returns how many entries are parked.
func (p *Parking[T]) Len() int { return p.n }

// Parks returns how many entries were parked and how many ran when their
// pages arrived.
func (p *Parking[T]) Parks() (parked, unparked uint64) { return p.Parked, p.Unparked }

// Clear drops every parked entry: their demand fetches may still complete,
// but the pages simply age out of the cache.
func (p *Parking[T]) Clear() {
	clear(p.pages)
	p.n = 0
}
