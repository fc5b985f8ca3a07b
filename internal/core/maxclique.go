package core

import (
	"context"
	"runtime/debug"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// MaximumCliqueBudget returns one maximum-cardinality α-clique of g (ties
// broken by search order) together with its clique probability. It runs the
// MULE search with a dynamic LARGE-MULE-style bound: a branch is cut as soon
// as |C'| + |I'| cannot beat the best clique found so far, which is exactly
// the Algorithm 6 cut with a threshold that tightens during the search. For
// an empty graph it returns (nil, 1).
//
// Note the result is a maximum α-clique, which is necessarily α-maximal;
// enumerating all of them is possible with EnumerateWith and a MinSize of
// the returned size, but a single witness is the common query.
//
// The search polls ctx every abortCheckInterval nodes and returns a wrapped
// context error if it fires before the search space is exhausted; it aborts
// with a wrapped ErrBudget after expanding more than budget search nodes
// (0 = unlimited), the same accounting as Config.Budget.
func MaximumCliqueBudget(ctx context.Context, g *uncertain.Graph, alpha float64, budget int64) ([]int, float64, error) {
	if err := Validate(g, alpha, Config{Budget: budget}); err != nil {
		return nil, 0, err
	}
	work := g.PruneAlpha(alpha)
	n := work.NumVertices()
	// bestProb starts at 1: the empty clique has probability 1 by convention.
	// The candidate sets live in a pooled arena under the same watermark
	// discipline as the enumeration kernel: mark per iteration, carve the
	// child's I', release when the subtree returns. Steady state allocates
	// nothing; the arena goes back to its size-class pool on every exit.
	m := &maxSearch{
		g:        work,
		alpha:    alpha,
		bestProb: 1,
		ctl:      NewRunControl(ctx, budget),
		tick:     abortCheckInterval,
		arena:    checkoutArena(n),
	}
	defer returnArena(n, m.arena)
	rootI := m.arena.alloc(n)
	for v := 0; v < n; v++ {
		rootI = rootI.push(int32(v), 1)
	}
	if !m.ctl.Poll(0) {
		// Containment boundary: the search is serial, so a panic below (a
		// latent kernel bug) unwinds here, the deferred arena return still
		// runs, and the caller gets a typed *PanicError instead of a crash.
		func() {
			defer func() {
				if v := recover(); v != nil {
					m.ctl.Abort(NewPanicError(v, debug.Stack()))
				}
			}()
			m.recurse(nil, 1, rootI)
		}()
	}
	var stats Stats
	stats.Calls = m.calls
	if err := m.ctl.finish(&stats, false); err != nil {
		return nil, 0, err
	}
	return m.best, m.bestProb, nil
}

type maxSearch struct {
	g        *uncertain.Graph
	alpha    float64
	best     []int
	bestProb float64
	ctl      *RunControl
	tick     int
	calls    int64
	arena    *entryArena
	stopped  bool
}

// recurse explores like Enum-Uncertain-MC but only tracks the deepest
// α-clique; the X set is unnecessary because maximality testing is not —
// any clique larger than the incumbent improves it regardless of
// maximality status.
func (m *maxSearch) recurse(C []int32, q float64, I entrySet) {
	if m.stopped {
		return
	}
	m.calls++
	m.tick--
	if m.tick <= 0 {
		m.tick = abortCheckInterval
		if m.ctl.Poll(abortCheckInterval) {
			m.stopped = true
			return
		}
	}
	if len(C) > len(m.best) {
		m.best = make([]int, len(C))
		for i, v := range C {
			m.best[i] = int(v)
		}
		m.bestProb = q
	}
	for idx := 0; idx < I.length(); idx++ {
		if m.stopped {
			return
		}
		// Bound: even taking every remaining candidate cannot beat best.
		if len(C)+I.length()-idx <= len(m.best) {
			return
		}
		u, r := I.v[idx], I.r[idx]
		q2 := q * r
		mk := m.arena.mark()
		tail := entrySet{I.v[idx+1:], I.r[idx+1:]}
		I2 := m.generateI(&tail, u, q2)
		if len(C)+1+I2.length() > len(m.best) {
			m.recurse(append(C, u), q2, I2)
		}
		m.arena.release(mk)
	}
}

func (m *maxSearch) generateI(tail *entrySet, u int32, q2 float64) entrySet {
	row, probs := m.g.Adjacency(int(u))
	j := 0
	for j < len(row) && row[j] <= u {
		j++
	}
	maxOut := min(tail.length(), len(row)-j)
	out := m.arena.alloc(maxOut)
	i := 0
	for i < tail.length() && j < len(row) {
		switch {
		case tail.v[i] < row[j]:
			i++
		case tail.v[i] > row[j]:
			j++
		default:
			r2 := tail.r[i] * probs[j]
			if q2*r2 >= m.alpha {
				out = out.push(tail.v[i], r2)
			}
			i++
			j++
		}
	}
	m.arena.shrink(maxOut, out.length())
	return out
}
