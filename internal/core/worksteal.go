package core

import (
	"sync"

	"github.com/uncertain-graphs/mule/internal/exec"
	"github.com/uncertain-graphs/mule/internal/faultinject"
)

// This file implements the default parallel engine: a work-stealing
// depth-first search over explicit, splittable frames, executed on the
// shared process-wide executor (internal/exec) rather than on per-run
// goroutines.
//
// A wsFrame is one suspended invocation of Enum-Uncertain-MC (Algorithm 2):
// the working clique C with clq(C) = q, the node's full candidate set I,
// and the iteration range [next, end) of candidates this frame still has to
// expand. The witness set is maintained under the invariant
//
//	X == X₀ ++ I[:next]
//
// where X₀ is the witness set the node was created with. The serial loop
// maintains exactly this (it pushes every expanded candidate onto X), which
// makes a frame splittable at any iteration boundary: the witness set of
// iteration mid is X ++ I[next:mid], computable from the frame alone — the
// invariant holds lane-wise in the SoA layout, so a split copies both
// lanes. A thief can therefore take the upper half of a lone frame's
// pending range (the executor's Split hook, below), or — the common case —
// half of the oldest (shallowest, and hence biggest) frames of a victim's
// deque, which the executor does generically.
//
// Division of labor with the executor: the executor owns the deques, the
// inbox, stealing, parking, per-run parallelism caps, and termination by
// frame conservation. This engine owns the frames' meaning — executing one
// (executeFrame), splitting a lone frame at the iteration level (Split),
// and the per-slot accounting. Frames cross query boundaries on the shared
// deques, but never cross accounting boundaries: every executor callback
// carries a slot ID, each slot lazily gets a private wsWorker (stats block,
// arena, free list, steal counters), and the blocks are merged in slot
// order after the run's Wait returns. Incrementing an engine-wide counter
// from Split/NoteSteal would race between two thieves robbing different
// victims; slot-private counters make that impossible by construction
// (regression-tested by the steal-storm test under -race) and keep the
// node-counting hot path free of cross-worker cache-line contention.
//
// Pooled-resource discipline: each slot's enumerator checks its entry arena
// out of the size-classed pools (pools.go) at slot creation and returns it
// in the post-Wait merge loop — the single terminal point every outcome
// (complete, early stop, cancel, budget) funnels through. Arena memory never crosses slots: frame state (C, I, X)
// always lives on the heap, copied out of the arena before the frame is
// published, so a thief never observes another slot's arena memory.
//
// Frame free list: the heap copies are the engine's one remaining steady-
// state allocation (frame struct + C + I/X lanes per frame-worthy node). A
// fully executed frame therefore goes onto the executing slot's private
// free list and the next frame-worthy child reuses its struct and slice
// capacity. The only frames excluded are those whose C/I became aliased by
// an iteration-level split (shared flag, set under the victim's deque mutex
// — the same mutex every ownership handoff goes through, so the owner
// always observes it): the thief's half-frame still reads those slices, so
// both aliases are left to the GC. Splits are rare (Stats.Splits), so in
// steady state frame churn recycles entirely within the free lists.

// defaultStealGranularity is the Config.StealGranularity used when the knob
// is zero: subtrees with fewer pending candidates than this run inline with
// the serial recursion instead of becoming stealable frames. A node with k
// candidates roots a subtree of at most 2^k set-visits, so 8 bounds an
// unstealable chunk to a few hundred cheap nodes.
const defaultStealGranularity = 8

// wsFreeListMax bounds a slot's frame free list. Deques are rarely more
// than a few dozen frames deep, so 64 recycled frames cover the working set
// without pinning arbitrarily large C/I/X capacities for the whole run.
const wsFreeListMax = 64

type wsFrame struct {
	C      []int32  // working clique; read-only once the frame exists
	q      float64  // clq(C)
	I      entrySet // full candidate set of the node; read-only
	X      entrySet // witness set, kept equal (lane-wise) to X₀ ++ I[:next]
	next   int      // first pending candidate index
	end    int      // one past the last candidate this frame owns
	shared bool     // C/I aliased by an iteration-level split; never recycle
}

// wsShared is the state common to all slots of one run (and reused by the
// top-level driver for its visitor wrapping). The stop flag lives in the
// run control so that visitor early-stop, context cancellation, and budget
// exhaustion all unwind every slot through the same latch.
type wsShared struct {
	ctl     *RunControl
	visitMu sync.Mutex // serializes user-visitor invocations
	visit   Visitor    // the user's visitor; nil = count only
}

// deliver hands one slot's emission to the user visitor, serialized across
// slots, and latches the early-stop: after any visitor invocation returns
// false, every later emission is swallowed, preserving the serial contract
// that no clique is delivered after the stop. delivered reports whether the
// visitor received the emission (always, when there is no visitor: the run
// only counts); more is false once the run must stop.
func (s *wsShared) deliver(c []int, p float64) (delivered, more bool) {
	if s.visit == nil {
		return true, true
	}
	s.visitMu.Lock()
	defer s.visitMu.Unlock()
	if s.ctl.stop.Load() {
		return false, false
	}
	if !s.visit(c, p) {
		s.ctl.stop.Store(true)
		return true, false
	}
	return true, true
}

// wsWorker is one slot's private state: the worker-clone enumerator (own
// stats and pooled arena), the frame free list, and the steal/split
// counters this slot increments as a thief. The executor guarantees calls
// for one slot ID are never concurrent, so nothing here is locked.
type wsWorker struct {
	id          int
	granularity int
	shared      *wsShared
	e           *enumerator // slot-local clone; private stats and emit buffer
	slot        *exec.Slot  // valid for the duration of one Execute call
	stats       Stats       // this slot's counters; merged after the run
	steals      int64       // successful steals by this slot (as the thief)
	splits      int64       // iteration-level splits by this slot (as the thief)
	scratch     []int32     // reusable C∪{u} buffer for leaf nodes
	free        []*wsFrame  // recycled frames; reused for frame-worthy children
}

// takeFrame returns a recycled frame (slice capacities intact) or a fresh
// zero frame. The caller overwrites every field.
func (w *wsWorker) takeFrame() *wsFrame {
	n := len(w.free)
	if n == 0 {
		return &wsFrame{}
	}
	f := w.free[n-1]
	w.free[n-1] = nil
	w.free = w.free[:n-1]
	return f
}

// recycle puts a fully executed frame onto the slot's free list. A frame
// whose C/I are aliased by a split stays out — the other alias may still
// read them — as does anything beyond the list bound.
func (w *wsWorker) recycle(f *wsFrame) {
	if f.shared || len(w.free) >= wsFreeListMax {
		return
	}
	f.C, f.I, f.X = f.C[:0], f.I.reset(), f.X.reset()
	w.free = append(w.free, f)
}

// wsEngine adapts the frame search to the executor's Engine interface for
// one run. locals is indexed by slot ID and sized Parallelism()+1 (pool
// workers plus the run's Wait helper); each element is written exactly once,
// by the goroutine owning that slot, and read by the submitting goroutine
// only after Wait returns — the run-completion atomics order those accesses.
type wsEngine struct {
	e      *enumerator
	s      *wsShared
	gran   int
	locals []*wsWorker
}

// local returns the slot's private wsWorker, creating it (with a pooled
// arena checked out for the slot's enumerator clone) on first use.
func (en *wsEngine) local(id int) *wsWorker {
	w := en.locals[id]
	if w == nil {
		// The scratch clique starts with the serial cbuf's capacity, so the
		// inline recursion's append(C, u) extends it in place.
		w = &wsWorker{id: id, granularity: en.gran, shared: en.s, scratch: make([]int32, 0, 128)}
		w.e = en.e.workerClone(&w.stats, en.s)
		en.locals[id] = w
	}
	return w
}

// Execute runs one claimed frame to completion on the slot.
func (en *wsEngine) Execute(s *exec.Slot, f any) {
	w := en.local(s.ID())
	w.slot = s
	w.executeFrame(f.(*wsFrame))
	w.slot = nil
}

// Split subdivides a lone queued frame at the iteration level: the thief
// receives the upper half of the pending range with private witness lanes
// reconstructed from the split invariant; both halves then alias the same
// C/I and are marked unrecyclable. Called with the victim's deque lock held,
// which serializes it against the owner's executeFrame; the counters are the
// thief slot's own.
func (en *wsEngine) Split(thief int, f any) any {
	fr := f.(*wsFrame)
	if fr.end-fr.next < 2 {
		return nil
	}
	mid := fr.next + (fr.end-fr.next)/2
	X := entrySet{
		v: make([]int32, fr.X.length(), fr.X.length()+(mid-fr.next)),
		r: make([]float64, fr.X.length(), fr.X.length()+(mid-fr.next)),
	}
	copy(X.v, fr.X.v)
	copy(X.r, fr.X.r)
	X.v = append(X.v, fr.I.v[fr.next:mid]...)
	X.r = append(X.r, fr.I.r[fr.next:mid]...)
	g := &wsFrame{C: fr.C, q: fr.q, I: fr.I, X: X, next: mid, end: fr.end, shared: true}
	fr.end = mid
	fr.shared = true
	w := en.local(thief)
	w.steals++
	w.splits++
	return g
}

// NoteSteal records one wholesale steal by the thief slot.
func (en *wsEngine) NoteSteal(thief int) {
	en.local(thief).steals++
}

// runWorkStealing executes the search with the work-stealing engine on the
// given executor. The root frame (all n vertices pending) is submitted to
// the shared pool with the query's Workers knob as the run's parallelism
// cap; the calling goroutine waits as the run's helper slot. Per-slot stats
// (including the steal/split counters, which a thief increments only on its
// own wsWorker) are merged in ascending slot order after the run, so the
// aggregate is reproducibly summed regardless of scheduling, and each
// slot's pooled arena is returned at the same point — the single
// terminal path for every outcome.
func (e *enumerator) runWorkStealing(x *exec.Executor, workers, granularity int) {
	if granularity <= 0 {
		granularity = defaultStealGranularity
	}
	n := e.g.NumVertices()
	// The root call is accounted once, exactly as in the serial driver.
	e.stats.Calls++
	if n == 0 {
		return
	}
	rootI := entrySet{v: make([]int32, n), r: make([]float64, n)}
	for v := 0; v < n; v++ {
		rootI.v[v] = int32(v)
		rootI.r[v] = 1
	}
	s := &wsShared{ctl: e.ctl, visit: e.visit}
	en := &wsEngine{e: e, s: s, gran: granularity, locals: make([]*wsWorker, x.Parallelism()+1)}
	root := &wsFrame{q: 1, I: rootI, end: n}
	r := x.Submit(en, exec.RunOpts{
		MaxParallel: workers,
		Stopped:     e.ctl.stop.Load,
		OnPanic: func(v any, stack []byte) {
			e.ctl.Abort(NewPanicError(v, stack))
		},
	}, root)
	// On a context fire while waiting, Poll(0) latches the abort cause and
	// the stop flag, so the executor purges the run's queued frames.
	r.Wait(e.ctl.Done(), func() { e.ctl.Poll(0) })
	for _, w := range en.locals {
		if w == nil {
			continue
		}
		w.stats.Steals += w.steals
		w.stats.Splits += w.splits
		e.stats.merge(&w.stats)
		w.e.releasePooled()
	}
	e.stopped = e.ctl.stop.Load()
}

// executeFrame runs f's pending candidate range depth-first. Before
// descending into a non-final child it pushes the continuation of f through
// the slot so thieves can take the remaining iterations; on the way back,
// PopIf tells it whether the continuation survived — failure means another
// slot owns f now (stolen from a deque, or, for a helper's inbox-published
// continuation, buried under later arrivals and left for the pool). A frame
// that runs dry is recycled onto the slot's free list on the spot.
func (w *wsWorker) executeFrame(f *wsFrame) {
	e := w.e
	s := w.shared
	faultinject.Fire(faultinject.PanicFrame)
	for {
		if e.stopped || s.ctl.stop.Load() {
			return
		}
		if f.next >= f.end {
			w.recycle(f)
			return
		}
		j := f.next
		f.next = j + 1
		u, r := f.I.v[j], f.I.r[j]
		q2 := f.q * r
		m := e.arena.mark()
		tail := entrySet{f.I.v[j+1:], f.I.r[j+1:]}
		var I2, X2 entrySet
		e.generateI(&I2, &tail, u, q2)
		if e.minSize >= 2 && len(f.C)+1+I2.length() < e.minSize {
			e.stats.SizePruned++
			// The serial loop skips the witness push here; keeping it
			// preserves the X == X₀ ++ I[:next] split invariant and cannot
			// change the emitted set (see the note in large.go).
			f.X = f.X.push(u, r)
			e.arena.release(m)
			continue
		}
		if I2.length() == 0 {
			// Leaf (emit) or dead end (witnessed): the early-exit witness
			// test against f.X — before u joins it — without allocating a
			// frame, building X', or recursing. A stop latched here is seen
			// at the loop head.
			w.scratch = append(append(w.scratch[:0], f.C...), u)
			e.leaf(w.scratch, q2, &f.X)
			f.X = f.X.push(u, r)
			e.arena.release(m)
			continue
		}
		e.generateX(&X2, &f.X, u, q2, I2.length())
		f.X = f.X.push(u, r)
		if I2.length() < w.granularity {
			// Small subtree: run it inline with the serial recursion on
			// slot-private scratch. It accounts for its own nodes and is
			// never exposed for stealing, so the arena-backed I2/X2 and the
			// scratch clique stay owned by this slot throughout.
			w.scratch = append(append(w.scratch[:0], f.C...), u)
			e.recurse(w.scratch, q2, I2, X2)
			e.arena.release(m)
			continue
		}
		// Frame-worthy child: its state may be handed to a thief, so copy
		// the arena-built I2/X2 lanes (and the extended clique) out of the
		// arena before releasing the mark — into a recycled frame's slices
		// when the free list has one. X gets the push capacity its own
		// witness pushes will need.
		child := w.takeFrame()
		child.C = append(append(child.C[:0], f.C...), u)
		child.q = q2
		child.I.v = append(child.I.v[:0], I2.v...)
		child.I.r = append(child.I.r[:0], I2.r...)
		if need := X2.length() + I2.length(); cap(child.X.v) < need {
			child.X = entrySet{v: make([]int32, 0, need), r: make([]float64, 0, need)}
		}
		child.X.v = append(child.X.v[:0], X2.v...)
		child.X.r = append(child.X.r[:0], X2.r...)
		child.next, child.end, child.shared = 0, I2.length(), false
		e.arena.release(m)
		if e.countNode() {
			return
		}
		if d := len(child.C); d > e.stats.MaxDepth {
			e.stats.MaxDepth = d
		}
		if e.checkInv {
			e.verifyInvariants(child.C, q2, child.I, child.X)
		}
		if f.next >= f.end {
			// Final candidate: nothing left to expose, descend in place.
			w.recycle(f)
			f = child
			continue
		}
		w.slot.Push(f)
		w.executeFrame(child)
		if !w.slot.PopIf(f) {
			return // the continuation's ownership moved; someone else runs f
		}
	}
}
