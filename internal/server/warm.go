package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// warmTrackCap bounds how many distinct query shapes the warm tracker
// remembers across all graphs; beyond it the least-recently-hit shape is
// forgotten. It is deliberately larger than any sane warmKeys so the
// per-graph MRU window never starves because another graph is hot.
const warmTrackCap = 64

// defaultWarmKeys is how many most-recently-hit shapes an Apply re-issues
// against the new epoch when Config.WarmKeys is zero.
const defaultWarmKeys = 4

// warmShape is one re-issuable query: the graph it ran against and its
// parsed parameters, sanitized for server-initiated replay (no tenant — the
// server, not a client, pays for warming — and no timeout or progress).
type warmShape struct {
	graph string
	p     *qparams
}

// warmTracker is an MRU list of the query shapes that recently hit the
// result cache. Shapes are keyed by their epoch-independent identity
// (cacheKey with epoch 0), so a query repeated across epochs occupies one
// slot and its position reflects its latest hit.
type warmTracker struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // *warmShape; front = most recently hit
	entries map[string]*list.Element
}

func newWarmTracker(capacity int) *warmTracker {
	return &warmTracker{cap: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

// record notes a cache hit for (graph, p), promoting the shape to
// most-recently-hit. p is copied and sanitized; the caller's value is not
// retained.
func (t *warmTracker) record(graph string, p *qparams) {
	cp := *p
	cp.tenant = ""
	cp.timeout = 0
	key := cp.cacheKey(graph, 0)
	if key == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		el.Value.(*warmShape).p = &cp
		t.ll.MoveToFront(el)
		return
	}
	t.entries[key] = t.ll.PushFront(&warmShape{graph: graph, p: &cp})
	for t.ll.Len() > t.cap {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.entries, oldest.Value.(*warmShape).p.cacheKey(oldest.Value.(*warmShape).graph, 0))
	}
}

// shapes returns up to n shapes for graph, most recently hit first.
func (t *warmTracker) shapes(graph string, n int) []*qparams {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*qparams
	for el := t.ll.Front(); el != nil && len(out) < n; el = el.Next() {
		if s := el.Value.(*warmShape); s.graph == graph {
			out = append(out, s.p)
		}
	}
	return out
}

// purge forgets every shape recorded for graph (called when the graph is
// deleted; a replaced graph keeps its shapes — same name, new epoch, and
// warming is exactly what a replacement wants).
func (t *warmTracker) purge(graph string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for el := t.ll.Front(); el != nil; {
		next := el.Next()
		if s := el.Value.(*warmShape); s.graph == graph {
			t.ll.Remove(el)
			delete(t.entries, s.p.cacheKey(s.graph, 0))
		}
		el = next
	}
}

// tracked returns the number of shapes currently remembered.
func (t *warmTracker) tracked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// warmCounters is the warming side of /stats, updated lock-free from the
// background warmer.
type warmCounters struct {
	scheduled atomic.Int64
	completed atomic.Int64
	skipped   atomic.Int64
	failed    atomic.Int64
	inflight  atomic.Int64
	busy      atomic.Bool // one warm pass at a time
}

// warmStats is the /stats wire shape of cache warming.
type warmStats struct {
	Tracked   int   `json:"tracked"`
	Scheduled int64 `json:"scheduled"`
	Completed int64 `json:"completed"`
	Skipped   int64 `json:"skipped"`
	Failed    int64 `json:"failed"`
	InFlight  int64 `json:"inflight"`
}

// warmAfterApply re-issues up to warmKeys most-recently-hit query shapes for
// name against its (just bumped) current epoch, repopulating the result
// cache before clients ask again. It never blocks the Apply response: the
// runs happen on one background goroutine, at most one warm pass is in
// flight per server (a pass racing a newer Apply is wasted work the LRU
// absorbs, and unbounded stacking is worse), and every outcome is counted
// for /stats.
func (s *Server) warmAfterApply(name string) {
	if s.warmKeys <= 0 {
		return
	}
	shapes := s.warm.shapes(name, s.warmKeys)
	if len(shapes) == 0 {
		return
	}
	if !s.warmCount.busy.CompareAndSwap(false, true) {
		s.warmCount.skipped.Add(int64(len(shapes)))
		return
	}
	s.warmCount.scheduled.Add(int64(len(shapes)))
	s.warmCount.inflight.Add(1)
	go func() {
		defer s.warmCount.busy.Store(false)
		defer s.warmCount.inflight.Add(-1)
		for _, p := range shapes {
			s.warmOne(name, p)
		}
	}()
}

// warmOne runs one recorded shape against name's current snapshot and
// caches the settled answer, skipping work the cache already holds.
func (s *Server) warmOne(name string, p *qparams) {
	e := s.reg.get(name)
	if e == nil {
		s.warmCount.skipped.Add(1)
		return
	}
	snap := e.snapshot()
	key := p.cacheKey(name, snap.Epoch)
	if key == "" || s.cache.peek(key) {
		s.warmCount.skipped.Add(1)
		return
	}
	run, err := p.newRunner(snap, s.ex, nil)
	if err != nil {
		s.warmCount.failed.Add(1)
		return
	}
	out := run(context.Background())
	if out.err != nil {
		s.warmCount.failed.Add(1)
		return
	}
	if _, err := s.settle(key, out); err != nil {
		s.warmCount.failed.Add(1)
		return
	}
	s.warmCount.completed.Add(1)
}

// warmStatsSnapshot assembles the /stats view.
func (s *Server) warmStatsSnapshot() warmStats {
	return warmStats{
		Tracked:   s.warm.tracked(),
		Scheduled: s.warmCount.scheduled.Load(),
		Completed: s.warmCount.completed.Load(),
		Skipped:   s.warmCount.skipped.Load(),
		Failed:    s.warmCount.failed.Load(),
		InFlight:  s.warmCount.inflight.Load(),
	}
}
