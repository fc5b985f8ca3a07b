package ubiclique

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Visitor receives each α-maximal biclique: the left side and right side as
// vertex slices sorted ascending (in their own ID spaces) together with the
// biclique probability. Both slices are reused between calls; copy them to
// retain them. Returning false stops the enumeration.
type Visitor func(left, right []int, prob float64) bool

// Biclique is one materialized α-maximal biclique.
type Biclique struct {
	Left, Right []int
	Prob        float64
}

// Config tunes an enumeration run. The zero value enumerates every
// α-maximal biclique.
type Config struct {
	// MinLeft and MinRight, when ≥ 2, restrict the output to α-maximal
	// bicliques with at least that many vertices on the corresponding side,
	// pruning subtrees that cannot reach the requested shape (the LARGE-MULE
	// analogue). Values ≤ 1 mean "non-empty", which every biclique already
	// satisfies.
	MinLeft, MinRight int
	// Budget, when > 0, bounds the number of search-tree nodes the run may
	// expand before aborting with core.ErrBudget, charged in
	// abortCheckInterval batches like the clique kernel's budget.
	Budget int64
	// Stall, when > 0, arms the stall watchdog: a run whose progress beacon
	// (stamped by every run-control poll) does not advance for this long is
	// aborted with an error wrapping core.ErrStalled.
	Stall time.Duration
	// CheckInvariants verifies the Lemma 6/7 analogues at every search node
	// against from-scratch recomputation. Massively slow; test-only.
	CheckInvariants bool
}

// Stats reports the work performed by an enumeration run.
type Stats struct {
	Status       core.RunStatus // how the run ended (complete, stopped, canceled, …)
	Calls        int64          // search-tree nodes visited
	Emitted      int64          // α-maximal bicliques reported
	Cut          int64          // subtrees skipped by the side/size reachability cut
	MaxLeft      int            // largest emitted left side
	MaxRight     int            // largest emitted right side
	CandidateOps int64          // candidate entries produced across all generateI calls
	WitnessOps   int64          // witness entries produced across all generateX calls
	PrunedEdges  int            // edges removed by α-pruning
}

// entry is one element of the candidate set I or the witness set X: ground
// vertex v with the multiplier r such that bclq of the working pair extended
// by v equals the working probability times r.
type entry struct {
	v int32
	r float64
}

// Enumerate enumerates every α-maximal biclique of g, invoking visit for
// each. visit may be nil to only count. alpha must lie in (0, 1].
func Enumerate(g *Bipartite, alpha float64, visit Visitor) (Stats, error) {
	return EnumerateWith(g, alpha, visit, Config{})
}

// EnumerateWith runs the enumeration with explicit configuration.
func EnumerateWith(g *Bipartite, alpha float64, visit Visitor, cfg Config) (Stats, error) {
	return EnumerateContext(context.Background(), g, alpha, visit, cfg)
}

// EnumerateContext is EnumerateWith under ctx: the recursion polls the
// shared run-control block every abortCheckInterval search nodes (a counter
// decrement per node, no per-node atomics) and, if the context fires or the
// Config.Budget runs out, unwinds and returns an error wrapping
// context.Canceled, context.DeadlineExceeded, or core.ErrBudget, with
// Stats.Status recording the terminal state. A visitor returning false
// remains a successful early stop (Stats.Status == StatusStopped).
func EnumerateContext(ctx context.Context, g *Bipartite, alpha float64, visit Visitor, cfg Config) (Stats, error) {
	if err := Validate(g, alpha, cfg); err != nil {
		return Stats{}, err
	}
	minL, minR := cfg.MinLeft, cfg.MinRight
	if minL < 1 {
		minL = 1
	}
	if minR < 1 {
		minR = 1
	}

	var stats Stats
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()

	work := g.PruneAlpha(alpha)
	stats.PrunedEdges = g.NumEdges() - work.NumEdges()

	e := &enumerator{
		g:        work.g,
		nL:       int32(work.nL),
		alpha:    alpha,
		minL:     minL,
		minR:     minR,
		visit:    visit,
		checkInv: cfg.CheckInvariants,
		stats:    &stats,
		ctl:      ctl,
		tick:     abortCheckInterval,
		leftBuf:  make([]int, 0, 16),
		rightBuf: make([]int, 0, 16),
	}
	e.run()
	return stats, finish(ctl, &stats, e.userStopped)
}

// Validate checks the (graph, alpha, config) triple that every enumeration
// entry point accepts, returning the first violation wrapped around the
// matching sentinel (core.ErrNilGraph, core.ErrAlphaRange, core.ErrConfig).
func Validate(g *Bipartite, alpha float64, cfg Config) error {
	if g == nil {
		return fmt.Errorf("ubiclique: %w", core.ErrNilGraph)
	}
	if !(alpha > 0 && alpha <= 1) { // also rejects NaN
		return fmt.Errorf("ubiclique: alpha %v: %w", alpha, core.ErrAlphaRange)
	}
	if cfg.MinLeft < 0 || cfg.MinRight < 0 {
		return fmt.Errorf("ubiclique: negative side minimum (%d, %d): %w", cfg.MinLeft, cfg.MinRight, core.ErrConfig)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("ubiclique: negative Budget %d: %w", cfg.Budget, core.ErrConfig)
	}
	if cfg.Stall < 0 {
		return fmt.Errorf("ubiclique: negative Stall %v: %w", cfg.Stall, core.ErrConfig)
	}
	return nil
}

// finish records the terminal status on stats and formats the abort error,
// mirroring the clique kernel's contract: nil for complete runs and visitor
// early-stops, a wrapped cause otherwise.
func finish(ctl *core.RunControl, stats *Stats, visitorStopped bool) error {
	stats.Status = ctl.Status(visitorStopped)
	err := ctl.Err()
	if err == nil {
		return nil
	}
	return fmt.Errorf("ubiclique: enumeration aborted after %d search calls: %w", stats.Calls, err)
}

// Collect returns all α-maximal bicliques in canonical order (each side
// sorted ascending; bicliques sorted by left side lexicographically, ties by
// right side).
func Collect(g *Bipartite, alpha float64) ([]Biclique, error) {
	return CollectWith(g, alpha, Config{})
}

// CollectWith is Collect with explicit configuration.
func CollectWith(g *Bipartite, alpha float64, cfg Config) ([]Biclique, error) {
	var out []Biclique
	_, err := EnumerateWith(g, alpha, func(l, r []int, p float64) bool {
		out = append(out, Biclique{
			Left:  append([]int(nil), l...),
			Right: append([]int(nil), r...),
			Prob:  p,
		})
		return true
	}, cfg)
	if err != nil {
		return nil, err
	}
	SortBicliques(out)
	return out, nil
}

// Count returns the number of α-maximal bicliques without materializing
// them.
func Count(g *Bipartite, alpha float64) (int64, error) {
	stats, err := Enumerate(g, alpha, nil)
	return stats.Emitted, err
}

// SortBicliques sorts bicliques into canonical order: by left side
// lexicographically, ties broken by right side. Sides are assumed sorted.
func SortBicliques(bs []Biclique) {
	slices.SortFunc(bs, func(a, b Biclique) int {
		if c := slices.Compare(a.Left, b.Left); c != 0 {
			return c
		}
		return slices.Compare(a.Right, b.Right)
	})
}

type enumerator struct {
	g           *uncertain.Graph // the α-pruned ground graph
	nL          int32            // ground IDs < nL are left, ≥ nL are right
	alpha       float64
	minL        int
	minR        int
	visit       Visitor
	checkInv    bool
	stats       *Stats
	ctl         *core.RunControl
	tick        int // nodes until the next control poll
	leftBuf     []int
	rightBuf    []int
	iBufs       [][]entry // iBufs[d]: candidate set of the node at depth d
	xBufs       [][]entry // xBufs[d]: witness set of the node at depth d
	stopped     bool      // unwind everything (abort or visitor stop)
	userStopped bool      // the visitor returned false
}

// abortCheckInterval matches the clique kernel's polling cadence: one
// control poll per this many search nodes, amortized to a counter
// decrement per node.
const abortCheckInterval = 1024

// countNode accounts one search node and polls the run control on the
// interval; it returns true when the run must unwind.
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

// run performs the Algorithm 1 analogue: every ground vertex starts as a
// candidate with multiplier 1 (a single vertex forms no cross pair, so its
// "biclique probability" is the empty product 1).
//
// The search allocates nothing per node. C has room for every ground
// vertex, and the node at depth d keeps its I and X in iBufs[d] and
// xBufs[d], which its siblings reuse once it returns. A parent sizes its
// child's X for the one witness the child appends per branch, so those
// appends never move X.
func (e *enumerator) run() {
	n := e.g.NumVertices()
	rootI := make([]entry, n)
	for v := 0; v < n; v++ {
		rootI[v] = entry{int32(v), 1}
	}
	e.iBufs = [][]entry{rootI}
	e.xBufs = [][]entry{make([]entry, 0, n)}
	e.recurse(make([]int32, 0, n), 1, rootI, e.xBufs[0], 0, 0)
}

// childBufs returns the empty I and X buffers of the node at depth d, with
// room for at least nI and nX entries.
func (e *enumerator) childBufs(d, nI, nX int) (I, X []entry) {
	if d == len(e.iBufs) {
		e.iBufs = append(e.iBufs, nil)
		e.xBufs = append(e.xBufs, nil)
	}
	if cap(e.iBufs[d]) < nI {
		e.iBufs[d] = make([]entry, 0, nI)
	}
	if cap(e.xBufs[d]) < nX {
		e.xBufs[d] = make([]entry, 0, nX)
	}
	return e.iBufs[d][:0], e.xBufs[d][:0]
}

// recurse is the Algorithm 2 analogue over the ground set L∪R. C is the
// working vertex set sorted ascending with biclique probability q; cL and cR
// count its left and right vertices.
//
// Invariants (the Lemma 6/7 analogues): every (u,r) ∈ I has u > max(C) and
// bclq of C extended by u equals q·r ≥ α; every (x,s) ∈ X has x ∉ C,
// x < max(C) and extension probability q·s ≥ α. I and X are sorted
// ascending, so their left entries precede their right entries.
func (e *enumerator) recurse(C []int32, q float64, I, X []entry, cL, cR int) {
	if e.stopped || e.countNode() {
		return
	}
	if e.checkInv {
		e.verifyInvariants(C, q, I, X)
	}
	// Reachability cut: descendants of this node extend C only with I
	// vertices, so the subtree can emit a biclique with ≥ minL left and
	// ≥ minR right vertices only if C and I together contain that many.
	// With the defaults (minL = minR = 1) this skips exactly the subtrees
	// stuck on a single side, which is what keeps side-only subsets — all
	// 2^|L| of them on an edgeless side — from being walked. The cut runs
	// before the emission test and before the loop, and the parent still
	// records the cut vertex as a witness, so maximality bookkeeping for
	// sibling branches is unaffected.
	li := countLeft(I, e.nL)
	if cL+li < e.minL || cR+(len(I)-li) < e.minR {
		e.stats.Cut++
		return
	}
	if len(I) == 0 && len(X) == 0 {
		// The cut already guarantees both sides meet their minima.
		e.emit(C, q, cL, cR)
		return
	}
	for idx := 0; idx < len(I); idx++ {
		if e.stopped {
			return
		}
		u, r := I[idx].v, I[idx].r
		q2 := q * r
		C2 := append(C, u)
		cL2, cR2 := cL, cR
		if u < e.nL {
			cL2++
		} else {
			cR2++
		}
		// The child filters at most len(I)−idx−1 candidates and len(X)
		// witnesses, and appends one witness per branch it takes.
		tail := I[idx+1:]
		I2, X2 := e.childBufs(len(C2), len(tail), len(X)+len(tail))
		I2 = e.generateI(I2, tail, u, q2)
		X2 = e.generateX(X2, X, u, q2)
		e.recurse(C2, q2, I2, X2, cL2, cR2)
		X = append(X, entry{u, r})
	}
}

// countLeft returns how many entries of the ascending-sorted I are left-side
// ground vertices.
func countLeft(I []entry, nL int32) int {
	return sort.Search(len(I), func(i int) bool { return I[i].v >= nL })
}

// generateI is the Algorithm 3 analogue. tail holds the candidate entries
// greater than u. A same-side candidate w shares no edge with u, so its
// multiplier is unchanged and only the tightened threshold q2·r ≥ α is
// re-checked; an opposite-side candidate must be adjacent to u and has its
// multiplier extended by p(u, w). The merge walks u's sorted adjacency row
// once because opposite-side candidates appear in ascending order. The
// survivors are appended to out, which must have room for len(tail).
func (e *enumerator) generateI(out, tail []entry, u int32, q2 float64) []entry {
	row, pr := e.g.Adjacency(int(u))
	j := 0
	for i := 0; i < len(tail); i++ {
		w := tail[i]
		if sameSide(w.v, u, e.nL) {
			if q2*w.r >= e.alpha {
				out = append(out, w)
			}
			continue
		}
		for j < len(row) && row[j] < w.v {
			j++
		}
		if j < len(row) && row[j] == w.v {
			r2 := w.r * pr[j]
			if q2*r2 >= e.alpha {
				out = append(out, entry{w.v, r2})
			}
		}
	}
	e.stats.CandidateOps += int64(len(out))
	return out
}

// generateX is the Algorithm 4 analogue: the same side-aware filter applied
// to the witness set, appending the survivors to out.
func (e *enumerator) generateX(out, X []entry, u int32, q2 float64) []entry {
	row, pr := e.g.Adjacency(int(u))
	j := 0
	for i := 0; i < len(X); i++ {
		x := X[i]
		if sameSide(x.v, u, e.nL) {
			if q2*x.r >= e.alpha {
				out = append(out, x)
			}
			continue
		}
		for j < len(row) && row[j] < x.v {
			j++
		}
		if j < len(row) && row[j] == x.v {
			s2 := x.r * pr[j]
			if q2*s2 >= e.alpha {
				out = append(out, entry{x.v, s2})
			}
		}
	}
	e.stats.WitnessOps += int64(len(out))
	return out
}

func sameSide(a, b, nL int32) bool {
	return (a < nL) == (b < nL)
}

// emit reports C, split back into its left and right sides, as an α-maximal
// biclique with probability q.
func (e *enumerator) emit(C []int32, q float64, cL, cR int) {
	left := e.leftBuf[:0]
	right := e.rightBuf[:0]
	// C is sorted ascending, so left ground IDs form the prefix.
	for _, v := range C[:cL] {
		left = append(left, int(v))
	}
	for _, v := range C[cL:] {
		right = append(right, int(v-e.nL))
	}
	e.leftBuf, e.rightBuf = left, right
	e.stats.Emitted++
	if cL > e.stats.MaxLeft {
		e.stats.MaxLeft = cL
	}
	if cR > e.stats.MaxRight {
		e.stats.MaxRight = cR
	}
	if e.visit != nil && !e.visit(left, right, q) {
		e.stopped = true
		e.userStopped = true
	}
}

// verifyInvariants checks the Lemma 6/7 analogues of the current node
// against from-scratch recomputation, panicking on the first violation.
// Enabled only by Config.CheckInvariants.
func (e *enumerator) verifyInvariants(C []int32, q float64, I, X []entry) {
	maxC := int32(-1)
	inC := make(map[int32]bool, len(C))
	for _, v := range C {
		if v > maxC {
			maxC = v
		}
		inC[v] = true
	}
	qWant := e.groundProb(C)
	if !approxEq(q, qWant) {
		panic(fmt.Sprintf("ubiclique: node %v carries q=%v, recomputed %v", C, q, qWant))
	}
	inI := make(map[int32]float64, len(I))
	for _, en := range I {
		if en.v <= maxC {
			panic(fmt.Sprintf("ubiclique: I entry %d not greater than max(C)=%d", en.v, maxC))
		}
		inI[en.v] = en.r
	}
	inX := make(map[int32]float64, len(X))
	for _, en := range X {
		if en.v >= maxC || inC[en.v] {
			panic(fmt.Sprintf("ubiclique: X entry %d not below max(C)=%d or inside C", en.v, maxC))
		}
		inX[en.v] = en.r
	}
	n := int32(e.g.NumVertices())
	for v := int32(0); v < n; v++ {
		if inC[v] {
			continue
		}
		ext := e.groundProb(append(append([]int32(nil), C...), v))
		qualifies := ext >= e.alpha
		if v > maxC {
			r, ok := inI[v]
			if qualifies != ok {
				panic(fmt.Sprintf("ubiclique: vertex %d qualifies=%v but I membership=%v at %v", v, qualifies, ok, C))
			}
			if ok && !approxEq(q*r, ext) {
				panic(fmt.Sprintf("ubiclique: I multiplier for %d gives %v, want %v", v, q*r, ext))
			}
		} else {
			s, ok := inX[v]
			if qualifies != ok {
				panic(fmt.Sprintf("ubiclique: vertex %d qualifies=%v but X membership=%v at %v", v, qualifies, ok, C))
			}
			if ok && !approxEq(q*s, ext) {
				panic(fmt.Sprintf("ubiclique: X multiplier for %d gives %v, want %v", v, q*s, ext))
			}
		}
	}
}

// groundProb recomputes the biclique probability of a ground vertex set from
// scratch: the product over all cross pairs, 0 if a pair is missing.
func (e *enumerator) groundProb(set []int32) float64 {
	prob := 1.0
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			a, b := set[i], set[j]
			if sameSide(a, b, e.nL) {
				continue
			}
			p, ok := e.g.Prob(int(a), int(b))
			if !ok {
				return 0
			}
			prob *= p
		}
	}
	return prob
}

func approxEq(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= 1e-12*scale || diff <= 1e-300
}
