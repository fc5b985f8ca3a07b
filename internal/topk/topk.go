// Package topk ranks α-maximal cliques. The most closely related prior work
// to the paper (Zou, Li, Gao, Zhang; ICDE 2010) mines the k maximal cliques
// of highest probability; this package ranks for that query (the root
// package's Query.TopK) on top of MULE: among all α-maximal cliques of the
// graph, keep the k with the highest clique probability (or the k largest).
//
// Note that the threshold α cannot simply be raised to the running k-th best
// probability during the search: α-maximality is defined relative to α, so a
// larger threshold changes which vertex sets are maximal at all (a large
// clique that fails a higher α splinters into smaller maximal cliques).
// Query.TopK therefore enumerates the full α-maximal family once into a
// Collector's bounded min-heap, which is exact and costs O(output · log k)
// beyond the enumeration itself.
package topk

import (
	"container/heap"
	"fmt"

	"github.com/uncertain-graphs/mule/internal/core"
)

// ScoredClique is an α-maximal clique with its clique probability.
type ScoredClique struct {
	Vertices []int
	Prob     float64
}

// Criterion selects the ranking used by a top-k query.
type Criterion int

const (
	// CriterionProb ranks by clique probability, highest first; ties break
	// toward larger cliques, then lexicographically smaller vertex sets.
	CriterionProb Criterion = iota
	// CriterionSize ranks by clique size, largest first; ties break toward
	// higher probability, then lexicographically smaller vertex sets.
	CriterionSize
)

// String names the criterion for logs and error messages.
func (c Criterion) String() string {
	switch c {
	case CriterionProb:
		return "prob"
	case CriterionSize:
		return "size"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Collector keeps the k best cliques seen so far in a bounded min-heap.
// Feed it as a core.Visitor (Visit) and finish with Drain; it composes with
// any enumeration driver, which is how the query layer runs top-k under a
// context without this package knowing about cancellation.
type Collector struct {
	h *cliqueHeap
	k int
}

// NewCollector returns a collector retaining the k best cliques under the
// criterion. k must be positive; parameter violations wrap core.ErrConfig
// like every other query-surface validation failure.
func NewCollector(k int, by Criterion) (*Collector, error) {
	if k <= 0 {
		return nil, fmt.Errorf("topk: k must be positive, got %d: %w", k, core.ErrConfig)
	}
	var less func(a, b ScoredClique) bool
	switch by {
	case CriterionProb:
		less = lessByProb
	case CriterionSize:
		less = lessBySize
	default:
		return nil, fmt.Errorf("topk: unknown criterion %d: %w", int(by), core.ErrConfig)
	}
	return &Collector{h: &cliqueHeap{less: less}, k: k}, nil
}

// Visit offers one clique to the collector; it always returns true (a top-k
// query must see the whole family). It has the core.Visitor signature.
func (c *Collector) Visit(clique []int, p float64) bool {
	pushBounded(c.h, ScoredClique{Vertices: copyInts(clique), Prob: p}, c.k)
	return true
}

// Drain removes and returns the retained cliques, best-first. The collector
// is empty afterwards.
func (c *Collector) Drain() []ScoredClique {
	return drainDescending(c.h)
}

func copyInts(a []int) []int {
	cp := make([]int, len(a))
	copy(cp, a)
	return cp
}

// lessByProb orders worse-first (heap root = worst retained clique).
func lessByProb(a, b ScoredClique) bool {
	if a.Prob != b.Prob {
		return a.Prob < b.Prob
	}
	if len(a.Vertices) != len(b.Vertices) {
		return len(a.Vertices) < len(b.Vertices)
	}
	return lexGreater(a.Vertices, b.Vertices)
}

func lessBySize(a, b ScoredClique) bool {
	if len(a.Vertices) != len(b.Vertices) {
		return len(a.Vertices) < len(b.Vertices)
	}
	if a.Prob != b.Prob {
		return a.Prob < b.Prob
	}
	return lexGreater(a.Vertices, b.Vertices)
}

// lexGreater reports a > b lexicographically; used so that the heap evicts
// lexicographically larger sets first, keeping results deterministic.
func lexGreater(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return len(a) > len(b)
}

type cliqueHeap struct {
	items []ScoredClique
	less  func(a, b ScoredClique) bool
}

func (h cliqueHeap) Len() int           { return len(h.items) }
func (h cliqueHeap) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }
func (h cliqueHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *cliqueHeap) Push(x any)        { h.items = append(h.items, x.(ScoredClique)) }
func (h *cliqueHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

func pushBounded(h *cliqueHeap, sc ScoredClique, k int) {
	if h.Len() < k {
		heap.Push(h, sc)
		return
	}
	if h.less(h.items[0], sc) {
		h.items[0] = sc
		heap.Fix(h, 0)
	}
}

func drainDescending(h *cliqueHeap) []ScoredClique {
	out := make([]ScoredClique, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(ScoredClique)
	}
	return out
}
