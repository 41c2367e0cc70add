// Package rowset provides the packed row-id set representations the
// executor and scheduler hot paths run on: a fixed-universe bitmap of
// uint64 words with allocation-free set-algebra kernels, and sorted-int32
// merge kernels for sparse sets (index posting lists, selection id
// vectors).
//
// The validation phase of a discovery round executes thousands of small
// Project-Join probes, each of which builds, intersects and iterates row
// sets. Before this package those sets were []bool masks, map[int32]
// membership sets and per-row []int32 slices — every probe paid map hashes
// and fresh allocations. A Bitmap packs the same information into
// numRows/64 words: And and Or are word-wise loops the compiler
// vectorises, Popcount is math/bits.OnesCount64, membership is one shift
// and mask, and ordered iteration recovers ascending row ids with
// TrailingZeros64. All kernels are zero-allocation once the set is sized
// (guarded by AllocsPerRun tests), and Reset reuses capacity so pooled
// bitmaps never re-allocate in steady state.
//
// Representation choice: a bitmap costs O(universe/64) to iterate or
// clear regardless of how few bits are set, so very sparse sets (a
// keyword-index posting list of a handful of rows) are better kept as
// sorted []int32 vectors and combined with the merge kernel
// IntersectSorted, which costs O(len(a)+len(b)) and writes into
// caller-provided storage. The executor seeds candidate
// sets sparsely and switches to bitmaps where O(1) membership pays
// (join-probe filtering).
package rowset

import "math/bits"

const wordBits = 64

// Bitmap is a packed set of row ids over a fixed universe [0, Len()).
// The zero value is an empty set over an empty universe; Reset sizes it.
// Bitmap is not safe for concurrent mutation.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a bitmap over the universe [0, n).
func New(n int) *Bitmap {
	b := &Bitmap{}
	b.Reset(n)
	return b
}

// Reset clears the bitmap and resizes its universe to [0, n), reusing the
// existing word storage when it is large enough. Pooled bitmaps call Reset
// instead of reallocating.
func (b *Bitmap) Reset(n int) {
	w := (n + wordBits - 1) / wordBits
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	b.n = n
}

// Len returns the universe size.
func (b *Bitmap) Len() int { return b.n }

// Add inserts id into the set. id must be in [0, Len()).
func (b *Bitmap) Add(id int32) {
	b.words[uint32(id)/wordBits] |= 1 << (uint32(id) % wordBits)
}

// Remove deletes id from the set. id must be in [0, Len()).
func (b *Bitmap) Remove(id int32) {
	b.words[uint32(id)/wordBits] &^= 1 << (uint32(id) % wordBits)
}

// Contains reports whether id is in the set. id must be in [0, Len()).
func (b *Bitmap) Contains(id int32) bool {
	return b.words[uint32(id)/wordBits]&(1<<(uint32(id)%wordBits)) != 0
}

// AddSorted bulk-inserts a sorted (or unsorted — order is irrelevant for
// insertion) id vector.
func (b *Bitmap) AddSorted(ids []int32) {
	for _, id := range ids {
		b.words[uint32(id)/wordBits] |= 1 << (uint32(id) % wordBits)
	}
}

// And intersects b with o in place. The universes must have equal length.
func (b *Bitmap) And(o *Bitmap) {
	bw, ow := b.words, o.words
	for i := range bw {
		bw[i] &= ow[i]
	}
}

// Or unions o into b in place. The universes must have equal length.
func (b *Bitmap) Or(o *Bitmap) {
	bw, ow := b.words, o.words
	for i := range bw {
		bw[i] |= ow[i]
	}
}

// Popcount returns the number of elements in the set.
func (b *Bitmap) Popcount() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls yield for every element in ascending order until yield
// returns false.
func (b *Bitmap) ForEach(yield func(id int32) bool) {
	for wi, w := range b.words {
		base := int32(wi * wordBits)
		for w != 0 {
			if !yield(base + int32(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1 // clear lowest set bit
		}
	}
}

// AppendTo appends the elements in ascending order to dst and returns the
// extended slice. With pre-sized dst capacity the kernel does not allocate.
func (b *Bitmap) AppendTo(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi * wordBits)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Sorted-int32 sparse kernels
// ---------------------------------------------------------------------------

// IntersectSorted writes the intersection of two ascending id vectors into
// dst (truncated first) and returns it. dst may alias a, in which case the
// intersection is computed in place; with sufficient capacity the kernel
// does not allocate.
func IntersectSorted(dst, a, b []int32) []int32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av < bv:
			i++
		case av > bv:
			j++
		default:
			dst = append(dst, av)
			i++
			j++
		}
	}
	return dst
}
