package core

import (
	"math/bits"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Rank-indexed bit-row adjacency index for the probe kernel (intersect.go).
// Rows of the (pruned, filtered, relabeled) working graph are mirrored as bit
// sets over the vertex universe, and next to each row's words sit its ranks:
// rank[k] is the number of the row's neighbours below 64·k. Membership of v
// in u's row is then one bit test, and the position of v in u's sorted row —
// hence the index of p(u,v) in the parallel probability lane — is
//
//	rank[v>>6] + popcount(bits[v>>6] & (1<<(v&63) − 1))
//
// so intersecting a candidate or witness set against a mirrored row costs
// O(1) per set element, independent of the row length and the vertex span.
//
// The index is built once per run, after every graph transformation, and is
// read-only afterwards — workers share it without synchronization. Memory
// is the gate: a full bit matrix costs n²/8 bytes (plus a quarter for the
// ranks), so the index only exists for graphs up to bitsetMaxVertices, and
// under the adaptive policy only rows of at least bitsetMinRowLen
// neighbours are mirrored. Other rows keep nil and use the sorted kernels.

const (
	// bitsetMaxVertices bounds the vertex count for which bit rows are
	// built: beyond it the bit matrix (n²/8 bytes worst case) stops paying
	// for itself on the workloads this kernel targets. It also keeps every
	// rank below 1<<16, so ranks fit the uint16 lanes.
	bitsetMaxVertices = 8192
	// bitsetMinRowLen is the shortest row mirrored under the adaptive
	// policy: a shorter row is cheap to merge or gallop through anyway.
	bitsetMinRowLen = 64
)

// bitAdjacency is the per-run index: rows[u] holds the view of vertex u's
// mirrored row, or nil when u's row is not mirrored. A view is words bit
// words followed by ⌈words/4⌉ rank words, each rank word packing four
// uint16 ranks (rank k in bits 16·(k&3) of word k>>2). A nil *bitAdjacency
// (index disabled) behaves as the empty index. All views are carved from
// one pooled flat word buffer (backing), returned to the size-classed pools
// by release on the run's terminal path.
type bitAdjacency struct {
	words   int        // bit words per row: ⌈n/64⌉
	rows    [][]uint64 // row views into backing, indexed by vertex; nil = not mirrored
	backing []uint64   // pooled storage for every mirrored row
}

// row returns the view of u's mirrored row (bit words, then rank words), or
// nil when u is not mirrored (or the index is disabled).
func (b *bitAdjacency) row(u int32) []uint64 {
	if b == nil {
		return nil
	}
	return b.rows[u]
}

// rankWords is the number of words holding the uint16 ranks of a row with
// the given number of bit words.
func rankWords(words int) int { return (words + 3) / 4 }

// fillRanks writes the ranks of the bit words view[:words] into the rank
// words that follow them, which must be zero.
func fillRanks(view []uint64, words int) {
	rank := 0
	for k, w := range view[:words] {
		view[words+k>>2] |= uint64(rank) << (16 * (k & 3))
		rank += bits.OnesCount64(w)
	}
}

// buildBitAdjacency constructs the index for the working graph under the
// configured intersect mode: nil for IntersectSorted or oversized graphs,
// every row for IntersectBitset, and only rows of at least bitsetMinRowLen
// neighbours for the adaptive default. Returns nil when no row qualifies.
func buildBitAdjacency(g *uncertain.Graph, mode IntersectMode) *bitAdjacency {
	n := g.NumVertices()
	if mode == IntersectSorted || n == 0 || n > bitsetMaxVertices {
		return nil
	}
	minLen := bitsetMinRowLen
	if mode == IntersectBitset {
		minLen = 1
	}
	mirrored := 0
	for u := 0; u < n; u++ {
		if g.Degree(u) >= minLen {
			mirrored++
		}
	}
	if mirrored == 0 {
		return nil
	}
	words := (n + 63) / 64
	stride := words + rankWords(words)
	b := &bitAdjacency{
		words: words,
		rows:  make([][]uint64, n),
		// One pooled flat buffer backs every mirrored row; pool contents are
		// unspecified, so each carved view is cleared before it is filled.
		backing: checkoutWords(mirrored * stride),
	}
	off := 0
	for u := 0; u < n; u++ {
		if g.Degree(u) < minLen {
			continue
		}
		view := b.backing[off : off+stride : off+stride]
		off += stride
		clear(view)
		g.FillRowBits(u, view[:words])
		fillRanks(view, words)
		b.rows[u] = view
	}
	return b
}

// release returns the index's pooled row backing. The index must not be
// used afterwards.
func (b *bitAdjacency) release() {
	if b == nil || b.backing == nil {
		return
	}
	returnWords(b.backing)
	b.backing = nil
}
