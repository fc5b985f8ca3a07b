package core

import (
	"sync/atomic"

	"github.com/uncertain-graphs/mule/internal/exec"
)

// runTopLevel is the legacy parallel driver (ParallelTopLevel): it fans only
// the top-level branches of the search out across workers. It predates the
// work-stealing engine in worksteal.go and is kept because it is the natural
// comparison point: on skewed inputs where one top-level subtree dominates,
// this driver degenerates to serial execution while work stealing keeps
// subdividing the heavy branch. Like the work-stealing engine it runs on the
// shared executor: its frames are opaque seat tokens, one per requested
// worker, and each seat loops over a shared atomic branch counter.
//
// Soundness: at the root C = ∅, the branch for vertex u receives
// I_u = {(w, p(u,w)) : w ∈ Γ(u), w > u, p(u,w) ≥ α} and
// X_u = {(x, p(u,x)) : x ∈ Γ(u), x < u, p(u,x) ≥ α}, both of which depend
// only on u — not on how much of the loop has already run — because the
// root's X accumulates exactly the vertices smaller than u. Top-level
// subtrees are therefore mutually independent and can run concurrently;
// every deeper level keeps the sequential left-to-right dependency through
// X and stays inside one seat.

// tlLocal is one slot's private state for the top-level engine: the worker
// clone with its pooled arena and the stats block merged after the run.
type tlLocal struct {
	stats Stats
	e     *enumerator
}

// tlEngine adapts the top-level fan-out to the executor. Seat frames carry
// no state (they are bare ints, used only as claim tokens); the branch
// counter next hands out top-level vertices dynamically, so seats that land
// on cheap branches keep pulling work instead of idling. locals follows the
// same slot-ID discipline as wsEngine.locals.
type tlEngine struct {
	e      *enumerator
	s      *wsShared
	n      int
	next   atomic.Int64
	locals []*tlLocal
}

func (en *tlEngine) local(id int) *tlLocal {
	l := en.locals[id]
	if l == nil {
		l = &tlLocal{}
		l.e = en.e.workerClone(&l.stats, en.s)
		en.locals[id] = l
	}
	return l
}

// Execute runs one seat: it pulls top-level branches off the shared counter
// until the branches run out or the run's stop latch fires.
func (en *tlEngine) Execute(s *exec.Slot, _ any) {
	l := en.local(s.ID())
	for {
		u := en.next.Add(1)
		if int(u) >= en.n || en.s.ctl.stop.Load() || l.e.stopped {
			return
		}
		l.e.branch(int32(u))
		if l.e.stopped {
			return // the visitor or the run control latched the stop
		}
	}
}

// Split declines: seat frames carry no divisible work (the branch counter
// already balances dynamically), so a lone queued seat moves wholesale.
func (en *tlEngine) Split(int, any) any { return nil }

// NoteSteal is a no-op: seats have no steal accounting.
func (en *tlEngine) NoteSteal(int) {}

func (e *enumerator) runTopLevel(x *exec.Executor, workers int) {
	n := e.g.NumVertices()
	s := &wsShared{ctl: e.ctl, visit: e.visit}
	en := &tlEngine{e: e, s: s, n: n, locals: make([]*tlLocal, x.Parallelism()+1)}
	en.next.Store(-1)
	seats := workers
	if seats > n {
		seats = n
	}
	roots := make([]any, seats)
	for i := range roots {
		roots[i] = i
	}
	r := x.Submit(en, exec.RunOpts{
		MaxParallel: workers,
		Stopped:     e.ctl.stop.Load,
		OnPanic: func(v any, stack []byte) {
			e.ctl.Abort(NewPanicError(v, stack))
		},
	}, roots...)
	r.Wait(e.ctl.Done(), func() { e.ctl.Poll(0) })
	for _, l := range en.locals {
		if l == nil {
			continue
		}
		MergeStats(e.stats, l.stats)
		l.e.releasePooled()
	}
	e.stopped = e.ctl.stop.Load()
	// The root call itself is accounted once, as in the serial driver.
	e.stats.Calls++
}

// branch runs the top-level iteration for vertex u: it reproduces exactly
// the state the serial loop would pass to the recursive call for u, and
// accounts for it the same way (candidates, then the size cut, then
// witnesses). It builds I and X in the worker's arena — the row is sorted,
// so neighbors < u (the witnesses) form the prefix and neighbors > u (the
// candidates) the suffix.
func (e *enumerator) branch(u int32) {
	row, probs := e.g.Adjacency(int(u))
	irow, iprobs := e.g.AdjacencySuffix(int(u), u)
	k := len(row) - len(irow) // witnesses: row[:k]

	m := e.arena.mark()
	I := e.arena.alloc(len(irow))
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
		e.arena.release(m)
		return
	}
	// X holds ≤ k filtered witnesses plus one push per candidate from the
	// recursion's loop.
	X := e.arena.alloc(k + I.length())
	for i := 0; i < k; i++ {
		if p := probs[i]; p >= e.alpha && !e.rootCut(row[i]) {
			X = X.push(row[i], p)
		}
	}
	e.arena.shrink(k+I.length(), X.length()+I.length())
	e.stats.WitnessOps += int64(X.length())
	C := append(e.cbuf[:0], u)
	e.recurse(C, 1, I, X)
	e.arena.release(m)
}

// rootCut reports whether LARGE-MULE's size cut (Algorithm 6) drops the
// top-level branch of vertex x: x and its candidates — the later neighbors
// whose edge meets α — number fewer than minSize. The serial loop never
// pushes such an x onto the root witness set, so branch leaves it out of X
// as well; every clique it could witness against is below minSize anyway.
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
