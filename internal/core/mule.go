package core

import (
	"slices"

	"github.com/uncertain-graphs/mule/internal/faultinject"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// entry is one element of a candidate or witness set in array-of-structs
// form: vertex v together with the multiplier r such that clq(C ∪ {v}) =
// clq(C)·r for the current working clique C. Maintaining r incrementally is
// the paper's key optimization (§4, "a key insight is to reduce this time
// to O(1)"). The enumeration kernel itself stores sets structure-of-arrays
// (entrySet, arena.go) so the vertex scans touch 4 bytes per element; entry
// survives as the scalar element view used by the invariant checker
// (invariant.go).
type entry struct {
	v int32
	r float64
}

type enumerator struct {
	g        *uncertain.Graph
	alpha    float64
	minSize  int
	visit    Visitor   // the user's visitor on the serial path; nil = count only
	shared   *wsShared // parallel slot clones: delivers emissions instead of visit
	newToOld []int
	identity bool
	checkInv bool
	bits     *bitAdjacency // shared read-only bit-row index; may be nil
	stats    *Stats
	ctl      *RunControl
	tick     int         // nodes until the next ctl.poll; amortizes the abort check
	arena    *entryArena // pooled; checked out per enumerator, returned on terminal paths
	emitBuf  []int
	cbuf     []int32 // working-clique stack for the serial recursion
	stopped  bool
}

// countNode accounts one search-tree node and polls the run control every
// abortCheckInterval nodes. It returns true when the run must unwind — the
// context fired, the budget ran out, or another worker latched the stop —
// in which case e.stopped is raised so the recursion drains without further
// checks. The steady-state cost is one counter decrement per node.
func (e *enumerator) countNode() bool {
	e.stats.Calls++
	e.tick--
	if e.tick > 0 {
		return false
	}
	e.tick = abortCheckInterval
	if e.ctl.Poll(abortCheckInterval) {
		e.stopped = true
		return true
	}
	return false
}

// workerClone returns an enumerator that shares e's graph, configuration,
// and bit-row index but owns its stats, arena, and scratch buffers, with
// emissions routed through the run's shared serialization/early-stop state.
// The work-stealing engine builds its per-slot enumerators with it;
// everything mutable is slot-local (stats are merged deterministically
// after the run, arenas never cross slots). The arena comes from the
// size-classed pools; the caller owns the clone's terminal path and must
// call releasePooled there.
func (e *enumerator) workerClone(stats *Stats, s *wsShared) *enumerator {
	// The checkout-failure injection point sits before the first checkout:
	// a panic here models resource acquisition failing for a slot before it
	// owns anything, so pool conservation is unaffected by the fault itself.
	faultinject.Fire(faultinject.FailCheckout)
	return &enumerator{
		g:        e.g,
		alpha:    e.alpha,
		minSize:  e.minSize,
		shared:   s,
		newToOld: e.newToOld,
		identity: e.identity,
		checkInv: e.checkInv,
		bits:     e.bits,
		stats:    stats,
		ctl:      e.ctl,
		tick:     abortCheckInterval,
		arena:    checkoutArena(e.g.NumVertices()),
		emitBuf:  make([]int, 0, 64),
		cbuf:     make([]int32, 0, 128),
	}
}

// releasePooled returns the enumerator's pooled arena. It is called exactly
// once, on the enumerator's terminal path — the deferred release in
// EnumerateContext for the root, the work-stealing engine's post-Wait
// merge loop for slot clones — so every outcome (complete, early stop,
// cancel, budget, limit) funnels through the same return point.
func (e *enumerator) releasePooled() {
	if e.arena != nil {
		returnArena(e.g.NumVertices(), e.arena)
		e.arena = nil
	}
}

// runSerial performs Algorithm 1 as a loop over branch instead of
// materializing n-entry root sets in the pooled arena; the root counts as
// one search node.
func (e *enumerator) runSerial() {
	if e.countNode() {
		return
	}
	for u, n := 0, e.g.NumVertices(); u < n && !e.stopped; u++ {
		e.branch(int32(u))
	}
}

// branch runs the top-level child of vertex u with the serial recursion.
func (e *enumerator) branch(u int32) {
	m := e.arena.mark()
	if I, X, ok := e.rootSets(u); ok {
		e.recurse(append(e.cbuf[:0], u), 1, I, X)
	}
	e.arena.release(m)
}

// rootSets builds in the arena the candidate and witness sets that the root
// of Algorithm 1 hands the child for vertex u, and accounts for them the
// way recurse accounts a child: candidates, then the size cut, then
// witnesses. ok is false when the size cut drops the branch. The caller
// owns the arena mark.
//
// The root has C = ∅, every vertex in I with multiplier 1, and an X that
// gains each vertex as the loop passes it, so the child for u receives
// I_u = {(w, p(u,w)) : w ∈ Γ(u), w > u, p(u,w) ≥ α} and
// X_u = {(x, p(u,x)) : x ∈ Γ(u), x < u, p(u,x) ≥ α}, less the vertices the
// root's size cut drops (rootCut). Both depend only on u, not on how much
// of the loop has run, so the top-level children are mutually independent:
// the serial loop runs them in order, the work-stealing seats in any
// order; every deeper level keeps the left-to-right dependency through X.
// The row is sorted, so the witnesses row[:k] form its prefix and the
// candidates its suffix.
func (e *enumerator) rootSets(u int32) (I, X entrySet, ok bool) {
	row, probs := e.g.Adjacency(int(u))
	irow, iprobs := e.g.AdjacencySuffix(int(u), u)
	k := len(row) - len(irow)

	I = e.arena.alloc(len(irow))
	for i, w := range irow {
		if p := iprobs[i]; p >= e.alpha {
			I = I.push(w, p)
		}
	}
	e.arena.shrink(len(irow), I.length())
	// The p < α skips here and below are only reachable with SkipPrune.
	e.stats.CandidateOps += int64(I.length())
	if e.minSize >= 2 && 1+I.length() < e.minSize {
		e.stats.SizePruned++
		return I, X, false
	}
	// X holds ≤ k filtered witnesses plus one push per candidate from the
	// recursion's loop.
	X = e.arena.alloc(k + I.length())
	for i := 0; i < k; i++ {
		if p := probs[i]; p >= e.alpha && !e.rootCut(row[i]) {
			X = X.push(row[i], p)
		}
	}
	e.arena.shrink(k+I.length(), X.length()+I.length())
	e.stats.WitnessOps += int64(X.length())
	return I, X, true
}

// rootCut reports whether LARGE-MULE's size cut (Algorithm 6) drops the
// top-level branch of vertex x: x and its candidates — the later neighbors
// whose edge meets α — number fewer than minSize. The root loop never
// pushes such an x onto the root witness set, so rootSets leaves it out of
// X as well; every clique it could witness against is below minSize anyway.
func (e *enumerator) rootCut(x int32) bool {
	if e.minSize < 2 {
		return false
	}
	_, probs := e.g.AdjacencySuffix(int(x), x)
	need := e.minSize - 1
	for _, p := range probs {
		if p >= e.alpha {
			if need--; need == 0 {
				return false
			}
		}
	}
	return true
}

// recurse is Enum-Uncertain-MC (Algorithm 2), with the |C'|+|I'| < t cut of
// Algorithm 6 folded in when minSize ≥ 2.
//
// Invariants (Lemmas 6 and 7): C is an α-clique sorted ascending with
// q = clq(C); every (u,r) ∈ I has u > max(C) and clq(C∪{u}) = q·r ≥ α;
// every (x,s) ∈ X has x ∉ C, x < max(C) and clq(C∪{x}) = q·s ≥ α. Both I
// and X are sorted ascending by vertex.
//
// A child whose I' comes out empty is a leaf: it is emitted exactly when X'
// is empty too, so leaf answers that by the early-exit witness test instead
// of building X'.
//
// Memory discipline: I and X are arena sets owned by the caller; X was
// allocated with I.length() spare capacity so the witness pushes below
// never reallocate. Each iteration marks the arena, carves I' (and, for an
// inner child, X') for the child, and releases the mark when the subtree
// returns — steady state does no heap allocation. The recursive call
// itself takes the sets by value — recursion makes escape analysis treat
// pointer arguments conservatively, and a heap-escaping set per node would
// cost far more than the six copied words — while the non-recursive
// helpers underneath (generateI/generateX/intersectSets) take pointers so
// the per-node hot calls keep their arguments in registers.
func (e *enumerator) recurse(C []int32, q float64, I, X entrySet) {
	if e.stopped || e.countNode() {
		return
	}
	if len(C) > e.stats.MaxDepth {
		e.stats.MaxDepth = len(C)
	}
	if e.checkInv {
		e.verifyInvariants(C, q, I, X)
	}
	if I.length() == 0 && X.length() == 0 {
		e.emit(C, q)
		return
	}
	for idx := 0; idx < I.length(); idx++ {
		if e.stopped {
			return
		}
		u, r := I.v[idx], I.r[idx]
		q2 := q * r
		m := e.arena.mark()
		// I entries beyond idx are exactly those greater than u, since I is
		// sorted: GenerateI only ever inspects them.
		tail := entrySet{I.v[idx+1:], I.r[idx+1:]}
		var I2 entrySet
		e.generateI(&I2, &tail, u, q2)
		if e.minSize >= 2 && len(C)+1+I2.length() < e.minSize {
			// Algorithm 6 line 8: this subtree cannot reach a clique of the
			// requested size; skip it (including the X update — every
			// clique that u could witness against is itself below size t).
			e.stats.SizePruned++
			e.arena.release(m)
			continue
		}
		if I2.length() == 0 {
			e.leaf(append(C, u), q2, &X)
		} else {
			var X2 entrySet
			e.generateX(&X2, &X, u, q2, I2.length())
			e.recurse(append(C, u), q2, I2, X2)
		}
		e.arena.release(m)
		X = X.push(u, r)
	}
}

// leaf is the search node for a child clique C (its last vertex the branching
// vertex u, q = clq(C)) whose candidate set came out empty: by Algorithm 2,
// line 1 it is α-maximal exactly when its witness set X' is empty as well.
// Only that emptiness matters, so the witness intersection of the parent's
// X against u's row stops at the first x with r_x·p(x,u) ≥ α/q instead of
// materializing X'. The node is accounted exactly as recurse accounts one.
// Both the serial recursion and the work-stealing engine's leaf branch run
// leaves through here.
func (e *enumerator) leaf(C []int32, q float64, X *entrySet) {
	if e.countNode() {
		return
	}
	if len(C) > e.stats.MaxDepth {
		e.stats.MaxDepth = len(C)
	}
	maximal := !e.witnessed(X, C[len(C)-1], q)
	if e.checkInv {
		e.verifyLeaf(C, q, maximal)
	}
	if maximal {
		e.emit(C, q)
	}
}

// witnessed reports whether some (x, r) ∈ X extends C∪{u} at q2 =
// clq(C∪{u}) — whether generateX would produce a non-empty X'. It runs the
// same intersection into a one-slot set, which stops at the first survivor.
func (e *enumerator) witnessed(X *entrySet, u int32, q2 float64) bool {
	if X.length() == 0 {
		return false
	}
	row, probs := e.g.Adjacency(int(u))
	m := e.arena.mark()
	hit := e.arena.alloc(1)
	e.intersectSets(&hit, X, row, probs, e.bits.row(u), e.alpha/q2)
	e.arena.release(m)
	return hit.length() > 0
}

// generateI is Algorithm 3. tail holds the I-entries greater than u (the
// suffix of the parent's sorted I); the result keeps those that are adjacent
// to u and still meet the threshold, with multipliers extended by p({w,u}).
// The intersection with u's adjacency row probes u's bit row when it is
// mirrored, and otherwise merges or gallops — see intersect.go. The probe
// only tests tail vertices (all > u) and indexes the full row, so it skips
// the AdjacencySuffix binary search that restricts the sorted kernels to
// neighbours > u.
func (e *enumerator) generateI(out, tail *entrySet, u int32, q2 float64) {
	rowBits := e.bits.row(u)
	var row []int32
	var probs []float64
	if rowBits != nil {
		row, probs = e.g.Adjacency(int(u))
	} else {
		row, probs = e.g.AdjacencySuffix(int(u), u)
	}
	maxOut := min(tail.length(), len(row))
	*out = e.arena.alloc(maxOut)
	e.intersectSets(out, tail, row, probs, rowBits, e.alpha/q2)
	e.arena.shrink(maxOut, out.length())
	e.stats.CandidateOps += int64(out.length())
}

// generateX is Algorithm 4: the same filter-and-extend step applied to the
// witness set. All X entries are < u (old witnesses are below max(C), and
// witnesses added during the loop are candidates that precede u), so X stays
// sorted and the intersection mirrors generateI. extra reserves push room
// beyond the intersection: the child's loop pushes one witness per expanded
// candidate, so passing the child's |I'| guarantees its pushes stay inside
// the arena set.
func (e *enumerator) generateX(out, X *entrySet, u int32, q2 float64, extra int) {
	row, probs := e.g.Adjacency(int(u))
	maxOut := min(X.length(), len(row))
	*out = e.arena.alloc(maxOut + extra)
	e.intersectSets(out, X, row, probs, e.bits.row(u), e.alpha/q2)
	e.arena.shrink(maxOut+extra, out.length()+extra)
	e.stats.WitnessOps += int64(out.length())
}

// emit reports C (translated back to original vertex IDs) as an α-maximal
// clique with probability q. Emitted and MaxCliqueSize count only
// emissions the visitor received: a parallel slot's emission that arrives
// after another slot latched the stop is swallowed and not counted.
func (e *enumerator) emit(C []int32, q float64) {
	if len(C) == 0 {
		// Only reachable on a vertex-less graph; the empty set is not a
		// meaningful clique.
		return
	}
	if cap(e.emitBuf) < len(C) {
		// Grow to exactly twice the requirement: the buffer is kept for the
		// whole run, so growth stays bounded by 2× the largest clique
		// emitted instead of compounding append doublings.
		e.emitBuf = make([]int, 0, 2*len(C))
	}
	buf := e.emitBuf[:0]
	if e.identity {
		for _, v := range C {
			buf = append(buf, int(v))
		}
	} else {
		// newToOld is a non-identity permutation (identity orders — natural
		// or coincidental — skip the relabel entirely), so the translated
		// IDs are unordered and must be sorted for the visitor contract.
		for _, v := range C {
			buf = append(buf, e.newToOld[v])
		}
		slices.Sort(buf)
	}
	e.emitBuf = buf
	// Emissions stamp the stall beacon too: a run crawling through a slow
	// visitor between 1024-node polls still reads as live to the watchdog.
	e.ctl.Progress()
	faultinject.Fire(faultinject.PanicVisitor)
	delivered, more := true, true
	if e.shared != nil {
		delivered, more = e.shared.deliver(buf, q)
	} else if e.visit != nil {
		more = e.visit(buf, q)
	}
	if delivered {
		e.stats.Emitted++
		if len(buf) > e.stats.MaxCliqueSize {
			e.stats.MaxCliqueSize = len(buf)
		}
	}
	if !more {
		e.stopped = true
	}
}
