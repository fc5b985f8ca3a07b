package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pooled run resources. Before the shared executor, every run (and every
// worker of a parallel run) allocated its own entry arena and bit-row mirror
// backing (bit words and ranks) — exactly wrong for thousands of small
// concurrent queries, where the per-run setup dominates the mining. These
// pools recycle both across runs, size-classed by a power-of-two class
// of the demanded capacity so a burst of tiny queries never checks out the
// block set a giant graph grew.
//
// Ownership discipline is unchanged: a checked-out resource belongs to
// exactly one enumerator (one query-worker pair) until it is returned, and
// returns happen only on terminal paths — the deferred release in
// EnumerateContext / MaximumCliqueBudget for serial state, the post-Wait merge
// loop of the work-stealing engine for worker state — so cancel, budget, and
// limit unwinds all funnel through the same return points.
//
// The checkout/return event counters exist for the conservation assertion in
// the concurrency soak test: after any quiescent point, checkouts == returns
// proves no terminal path leaks a pooled resource. (sync.Pool may drop
// entries under GC; the counters track events, not inventory, so that never
// breaks the invariant.)

// poolClasses bounds the size-class space: class = ceil(log2(n)) clamped to
// [0, poolClasses). 32 classes cover every int32-indexed vertex universe.
const poolClasses = 32

var (
	poolCheckouts atomic.Int64
	poolReturns   atomic.Int64

	arenaPools [poolClasses]sync.Pool // *entryArena
	wordPools  [poolClasses]sync.Pool // *[]uint64, len == cap == 1<<class words
)

// PoolCounters reports the pooled-resource checkout and return event counts
// since process start. At any point where no run is in flight the two are
// equal; the soak test asserts exactly that.
func PoolCounters() (checkouts, returns int64) {
	return poolCheckouts.Load(), poolReturns.Load()
}

// sizeClass maps a demanded capacity to its pool class (smallest c with
// 1<<c ≥ n).
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c >= poolClasses {
		c = poolClasses - 1
	}
	return c
}

// checkoutArena takes an arena from the class pool for an n-vertex working
// graph. The arena's blocks grow on demand as before; the class only keeps
// small-query arenas from inheriting huge block sets.
func checkoutArena(n int) *entryArena {
	poolCheckouts.Add(1)
	if a, ok := arenaPools[sizeClass(n)].Get().(*entryArena); ok {
		return a
	}
	return &entryArena{}
}

// returnArena resets the cursor (keeping the grown blocks) and returns the
// arena to its class pool. Nothing carved from it may be used afterwards.
func returnArena(n int, a *entryArena) {
	if a == nil {
		return
	}
	poolReturns.Add(1)
	a.cur, a.off = 0, 0
	arenaPools[sizeClass(n)].Put(a)
}

// checkoutWords takes a word buffer of at least n words (len(buf) == n) from
// the class pool. The contents are unspecified; callers that need zeroed
// words clear the span they use (the bit-row builder clears each carved
// row view).
func checkoutWords(n int) []uint64 {
	if n == 0 {
		return nil
	}
	poolCheckouts.Add(1)
	c := sizeClass(n)
	if n > 1<<c {
		// The class space saturated (n exceeds the largest pooled capacity):
		// allocate exactly and never pool — returnWords detects the
		// off-class capacity and skips the Put.
		return make([]uint64, n)
	}
	if p, ok := wordPools[c].Get().(*[]uint64); ok {
		return (*p)[:n]
	}
	return make([]uint64, n, 1<<c)
}

// returnWords gives a buffer from checkoutWords back to its class pool.
func returnWords(buf []uint64) {
	if buf == nil {
		return
	}
	poolReturns.Add(1)
	// A pooled buffer was allocated at exactly 1<<class capacity, so the
	// class round-trips through cap; an over-class buffer (capacity beyond
	// the largest pool class) is dropped for GC instead.
	c := sizeClass(cap(buf))
	if cap(buf) != 1<<c {
		return
	}
	full := buf[:cap(buf)]
	wordPools[c].Put(&full)
}
