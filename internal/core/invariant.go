package core

import (
	"fmt"
	"math"
	"slices"
)

// relTol is the tolerance for comparing an incrementally maintained clique
// probability against a from-scratch product: the two multiply the same
// values in different orders, so they may differ by a few ulps.
const relTol = 1e-9

func nearlyEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale
}

// verifyInvariants asserts the preconditions of Enum-Uncertain-MC stated in
// Lemmas 6 and 7 of the paper, recomputing everything from scratch. It
// panics on the first violation; it is wired to Config.CheckInvariants and
// used only by the test suite (cost per call: O(n·|C|)).
func (e *enumerator) verifyInvariants(C []int32, q float64, I, X entrySet) {
	set := e.verifyClique(C, q)
	maxC := int32(-1)
	if len(C) > 0 {
		maxC = C[len(C)-1]
	}

	inC := make(map[int32]bool, len(C))
	for _, v := range C {
		inC[v] = true
	}
	checkEntry := func(kind string, ent entry, wantGreater bool) {
		if inC[ent.v] {
			panic(fmt.Sprintf("core invariant: %s entry %d already in C %v", kind, ent.v, set))
		}
		if wantGreater && ent.v <= maxC {
			panic(fmt.Sprintf("core invariant: I entry %d ≤ max(C)=%d", ent.v, maxC))
		}
		if !wantGreater && ent.v >= maxC {
			panic(fmt.Sprintf("core invariant: X entry %d ≥ max(C)=%d", ent.v, maxC))
		}
		ext := e.g.CliqueProb(append(set, int(ent.v)))
		if !nearlyEqual(ext, q*ent.r) {
			panic(fmt.Sprintf("core invariant: %s entry %d multiplier %v: clq=%v but q·r=%v",
				kind, ent.v, ent.r, ext, q*ent.r))
		}
		if ext < e.alpha && !nearlyEqual(ext, e.alpha) {
			panic(fmt.Sprintf("core invariant: %s entry %d does not meet α: %v < %v", kind, ent.v, ext, e.alpha))
		}
	}
	for i, v := range I.v {
		if i > 0 && I.v[i-1] >= v {
			panic("core invariant: I not sorted")
		}
		checkEntry("I", entry{v, I.r[i]}, true)
	}
	for i, v := range X.v {
		if i > 0 && X.v[i-1] >= v {
			panic("core invariant: X not sorted")
		}
		checkEntry("X", entry{v, X.r[i]}, false)
	}

	// Completeness (the "all tuples" part of Lemmas 6 and 7): every vertex
	// that could extend C must appear in I or X. X may legitimately be
	// incomplete under LARGE-MULE's size pruning, so the backward check only
	// runs for plain MULE.
	inI := make(map[int32]bool, I.length())
	for _, v := range I.v {
		inI[v] = true
	}
	inX := make(map[int32]bool, X.length())
	for _, v := range X.v {
		inX[v] = true
	}
	for w := 0; w < e.g.NumVertices(); w++ {
		if inC[int32(w)] {
			continue
		}
		ext := e.g.CliqueProb(append(set, w))
		if ext < e.alpha {
			continue
		}
		if int32(w) > maxC {
			if !inI[int32(w)] {
				panic(fmt.Sprintf("core invariant: vertex %d extends C=%v (clq=%v) but missing from I", w, set, ext))
			}
		} else if e.minSize < 2 && !inX[int32(w)] {
			panic(fmt.Sprintf("core invariant: vertex %d extends C=%v (clq=%v) but missing from X", w, set, ext))
		}
	}
}

// verifyClique checks that C is strictly ascending, that q = clq(C), and
// that a non-empty C is an α-clique, and returns C as an int slice.
func (e *enumerator) verifyClique(C []int32, q float64) []int {
	set := make([]int, len(C))
	for i, v := range C {
		set[i] = int(v)
		if i > 0 && C[i-1] >= C[i] {
			panic(fmt.Sprintf("core invariant: C %v not strictly ascending", C))
		}
	}
	trueQ := e.g.CliqueProb(set)
	if !nearlyEqual(q, trueQ) {
		panic(fmt.Sprintf("core invariant: q=%v but clq(%v)=%v", q, set, trueQ))
	}
	if len(set) > 0 && trueQ < e.alpha && !nearlyEqual(trueQ, e.alpha) {
		panic(fmt.Sprintf("core invariant: C=%v is not an α-clique (%v < %v)", set, trueQ, e.alpha))
	}
	return set
}

// verifyLeaf is verifyInvariants for a leaf: a node whose candidate set came
// out empty, decided by the early-exit witness test (mule.go) without a
// materialized X'. It checks from scratch that C is an ascending α-clique
// with q = clq(C), that no vertex above max(C) extends it (I' = ∅ is
// right), and that maximal is right: for plain MULE, C is reported maximal
// exactly when no vertex outside C extends it to an α-clique. Products
// within nearlyEqual of α count both ways. Under LARGE-MULE the witness set
// may be incomplete (see verifyInvariants), so there only a witnessed leaf
// is checked: some vertex must extend it.
func (e *enumerator) verifyLeaf(C []int32, q float64, maximal bool) {
	set := e.verifyClique(C, q)
	maxC := C[len(C)-1]
	extended := false
	for w := 0; w < e.g.NumVertices(); w++ {
		if slices.Contains(C, int32(w)) {
			continue
		}
		ext := e.g.CliqueProb(append(set, w))
		if ext < e.alpha && !nearlyEqual(ext, e.alpha) {
			continue
		}
		extended = true
		if nearlyEqual(ext, e.alpha) {
			continue
		}
		if int32(w) > maxC {
			panic(fmt.Sprintf("core invariant: vertex %d extends leaf C=%v (clq=%v) but I' is empty", w, set, ext))
		}
		if maximal && e.minSize < 2 {
			panic(fmt.Sprintf("core invariant: leaf C=%v emitted but vertex %d extends it (clq=%v)", set, w, ext))
		}
	}
	if !maximal && !extended {
		panic(fmt.Sprintf("core invariant: leaf C=%v witnessed but no vertex extends it", set))
	}
}
