package core

import "math/bits"

// Bitmap is a dense bit-per-vertex set used by the direction-optimizing BFS
// frontier (DESIGN.md §3): bottom-up phases test "is any neighbor in the
// frontier" against a replicated bitmap instead of materializing per-vertex
// visitor records, and level deltas travel between ranks as sparse word
// lists (index, word) rather than per-vertex messages.
type Bitmap struct{ words []uint64 }

// NewBitmap returns an all-zero bitmap holding n bits.
func NewBitmap(n uint64) Bitmap { return Bitmap{words: make([]uint64, (n+63)/64)} }

// Set sets bit i.
func (b Bitmap) Set(i uint64) { b.words[i>>6] |= 1 << (i & 63) }

// Get reports bit i.
func (b Bitmap) Get(i uint64) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// Clear zeroes every bit, keeping the backing array.
func (b Bitmap) Clear() { clear(b.words) }

// Words exposes the backing words (little-endian bit order within a word)
// for sparse serialization and bulk merges.
func (b Bitmap) Words() []uint64 { return b.words }

// OrWord merges one word at index w (bulk OR of a received level delta).
func (b Bitmap) OrWord(w uint32, v uint64) { b.words[w] |= v }

// Count returns the number of set bits.
func (b Bitmap) Count() uint64 {
	var n uint64
	for _, w := range b.words {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// First returns the lowest set bit, and false when none is set.
func (b Bitmap) First() (uint64, bool) {
	for wi, w := range b.words {
		if w != 0 {
			return uint64(wi)<<6 + uint64(bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// CopyFrom overwrites b with src (same length).
func (b Bitmap) CopyFrom(src Bitmap) { copy(b.words, src.words) }
