// Package dynamic maintains the set of α-maximal cliques of an uncertain
// graph under edge updates, without re-enumerating the whole graph on every
// change.
//
// Uncertain graphs in the paper's motivating domains drift: protein
// interaction confidences are revised, co-authorship predictions strengthen
// with every new paper, sensed social ties come and go. Changing the
// probability of one edge {u,v} (including adding it from, or removing it
// to, probability 0) only affects α-maximal cliques that contain u or v:
//
//   - a clique containing neither endpoint has an unchanged probability, and
//     its possible extensions w also have unchanged products (a product over
//     C ∪ {w} touches edge {u,v} only if both endpoints are inside);
//   - a clique containing u (or v) may gain or lose qualification or
//     maximality.
//
// The maintainer therefore re-derives, per update, only the maximal cliques
// containing u and those containing v. Any extender of a clique through u
// must be adjacent to u, so the maximal cliques of G containing u are
// exactly the maximal cliques of the induced subgraph G[N[u]] that contain
// u — a neighborhood-sized MULE run (internal/core), not a graph-sized one.
//
// The vertex set is fixed at construction; edges and probabilities are
// mutable. All queries and updates are single-threaded; wrap the maintainer
// in a mutex to share it.
package dynamic

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Maintainer holds an uncertain graph and its current set of α-maximal
// cliques, kept in sync across edge updates.
type Maintainer struct {
	alpha float64
	n     int
	adj   []map[int]float64 // adj[u][v] = p for every support edge
	// cliques maps the canonical key of each current α-maximal clique to
	// its vertices (sorted ascending).
	cliques map[string][]int
	// byVertex[v] holds the keys of the cliques containing v, for O(deg)
	// affected-set collection.
	byVertex []map[string]bool
	// stats accumulates the incremental enumeration work.
	stats Stats
}

// Stats reports the work performed by a maintainer. Maintainer.Stats
// returns the cumulative totals since construction (Status stays zero
// there); the context-aware update methods additionally return a per-call
// Stats covering just that operation, with Status recording how it ended.
type Stats struct {
	Status         core.RunStatus // per-op: how the update ended (complete, canceled, …)
	Updates        int            // edge updates applied
	Rebuilt        int            // neighborhood enumerations run (≤ 2 per update)
	SearchCalls    int64          // MULE search calls across all rebuilds
	CliquesAdded   int            // cliques that appeared across all updates
	CliquesRemoved int            // cliques that disappeared across all updates
}

// Diff reports the clique-set change caused by one update; both slices are
// in canonical order (each clique sorted, cliques sorted lexicographically).
type Diff struct {
	Added   [][]int
	Removed [][]int
}

// EdgeUpdate is one element of an Apply batch: set edge {U,V} to
// probability P, or remove it when Remove is true (P is then ignored).
type EdgeUpdate struct {
	U, V   int
	P      float64
	Remove bool
}

// New builds a maintainer for g at threshold alpha, running one full MULE
// enumeration to seed the clique set.
func New(g *uncertain.Graph, alpha float64) (*Maintainer, error) {
	return NewContext(context.Background(), g, alpha)
}

// NewContext is New under ctx: the seeding enumeration — the expensive,
// graph-sized part of construction — aborts with a wrapped context error if
// ctx fires. Per-update rebuilds are neighborhood-sized and run without a
// context.
func NewContext(ctx context.Context, g *uncertain.Graph, alpha float64) (*Maintainer, error) {
	if g == nil {
		return nil, fmt.Errorf("dynamic: %w", core.ErrNilGraph)
	}
	if !(alpha > 0 && alpha <= 1) { // also rejects NaN
		return nil, fmt.Errorf("dynamic: alpha %v: %w", alpha, core.ErrAlphaRange)
	}
	n := g.NumVertices()
	m := &Maintainer{
		alpha:    alpha,
		n:        n,
		adj:      make([]map[int]float64, n),
		cliques:  make(map[string][]int),
		byVertex: make([]map[string]bool, n),
	}
	for u := 0; u < n; u++ {
		m.adj[u] = make(map[int]float64)
		m.byVertex[u] = make(map[string]bool)
	}
	for _, e := range g.Edges() {
		m.adj[e.U][e.V] = e.P
		m.adj[e.V][e.U] = e.P
	}
	cliques, stats, err := core.CollectContext(ctx, g, alpha, core.Config{})
	if err != nil {
		return nil, err
	}
	m.stats.SearchCalls += stats.Calls
	for _, c := range cliques {
		m.insert(c)
	}
	return m, nil
}

// Alpha returns the maintainer's threshold.
func (m *Maintainer) Alpha() float64 { return m.alpha }

// NumVertices returns the (fixed) vertex count.
func (m *Maintainer) NumVertices() int { return m.n }

// NumEdges returns the current number of support edges.
func (m *Maintainer) NumEdges() int {
	total := 0
	for _, row := range m.adj {
		total += len(row)
	}
	return total / 2
}

// NumCliques returns the current number of α-maximal cliques.
func (m *Maintainer) NumCliques() int { return len(m.cliques) }

// Stats returns the cumulative maintenance statistics.
func (m *Maintainer) Stats() Stats { return m.stats }

// Prob returns the current probability of edge {u,v} and whether it exists.
func (m *Maintainer) Prob(u, v int) (float64, bool) {
	if u < 0 || u >= m.n || v < 0 || v >= m.n || u == v {
		return 0, false
	}
	p, ok := m.adj[u][v]
	return p, ok
}

// Cliques returns the current α-maximal cliques in canonical order.
func (m *Maintainer) Cliques() [][]int {
	out := make([][]int, 0, len(m.cliques))
	for _, c := range m.cliques {
		out = append(out, append([]int(nil), c...))
	}
	sortCliques(out)
	return out
}

// Graph materializes the current graph as an immutable uncertain.Graph.
func (m *Maintainer) Graph() *uncertain.Graph {
	b := uncertain.NewBuilder(m.n)
	for u, row := range m.adj {
		for v, p := range row {
			if u < v {
				// Cannot fail: the maintainer validates every mutation.
				_ = b.AddEdge(u, v, p)
			}
		}
	}
	return b.Build()
}

// SetEdgeContext sets the probability of edge {u,v} to p (inserting the
// edge if absent) and returns the clique-set diff plus the Stats of this
// operation. The affected-neighborhood re-enumerations poll ctx exactly
// like a Query run; if it fires mid-update the mutation is rolled back —
// the maintainer's graph and clique set are unchanged — and the error wraps
// context.Canceled or context.DeadlineExceeded. A panic contained during
// the re-enumeration rolls back the same way, with an error wrapping
// core.ErrPanic and Status StatusPanicked.
func (m *Maintainer) SetEdgeContext(ctx context.Context, u, v int, p float64) (Diff, Stats, error) {
	if err := m.checkPair(u, v); err != nil {
		return Diff{}, Stats{Status: core.StatusFailed}, err
	}
	if !(p > 0 && p <= 1) { // also rejects NaN
		return Diff{}, Stats{Status: core.StatusFailed}, fmt.Errorf("dynamic: probability %v: %w", p, uncertain.ErrProbRange)
	}
	oldP, existed := m.adj[u][v]
	m.adj[u][v] = p
	m.adj[v][u] = p
	diff, stats, err := m.refresh(ctx, u, v)
	if err != nil {
		if existed {
			m.adj[u][v] = oldP
			m.adj[v][u] = oldP
		} else {
			delete(m.adj[u], v)
			delete(m.adj[v], u)
		}
		return Diff{}, stats, err
	}
	return diff, stats, nil
}

// RemoveEdgeContext deletes edge {u,v} (equivalent to probability 0) and
// returns the clique-set diff plus the Stats of this operation. Removing a
// non-existent edge is an error wrapping core.ErrConfig. Like
// SetEdgeContext, an aborted update is rolled back completely.
func (m *Maintainer) RemoveEdgeContext(ctx context.Context, u, v int) (Diff, Stats, error) {
	if err := m.checkPair(u, v); err != nil {
		return Diff{}, Stats{Status: core.StatusFailed}, err
	}
	oldP, ok := m.adj[u][v]
	if !ok {
		return Diff{}, Stats{Status: core.StatusFailed}, fmt.Errorf("dynamic: edge {%d,%d} does not exist: %w", u, v, core.ErrConfig)
	}
	delete(m.adj[u], v)
	delete(m.adj[v], u)
	diff, stats, err := m.refresh(ctx, u, v)
	if err != nil {
		m.adj[u][v] = oldP
		m.adj[v][u] = oldP
		return Diff{}, stats, err
	}
	return diff, stats, nil
}

// Apply applies a batch of edge updates in order and returns the net
// clique-set diff — a clique that appears and then disappears within the
// batch (or vice versa) cancels out — plus the combined Stats of the whole
// batch. Updates are committed one at a time: if ctx fires (or an update is
// invalid) mid-batch, the failing update is rolled back, every earlier
// update stays committed, and the returned diff covers exactly the
// committed prefix, so the maintainer is always in a consistent state
// matching its Graph().
func (m *Maintainer) Apply(ctx context.Context, batch []EdgeUpdate) (Diff, Stats, error) {
	var total Stats
	added := make(map[string][]int)
	removed := make(map[string][]int)
	merge := func(diff Diff) {
		for _, c := range diff.Added {
			k := key(c)
			if _, wasRemoved := removed[k]; wasRemoved {
				delete(removed, k)
			} else {
				added[k] = c
			}
		}
		for _, c := range diff.Removed {
			k := key(c)
			if _, wasAdded := added[k]; wasAdded {
				delete(added, k)
			} else {
				removed[k] = c
			}
		}
	}
	net := func() Diff {
		var d Diff
		for _, c := range added {
			d.Added = append(d.Added, c)
		}
		for _, c := range removed {
			d.Removed = append(d.Removed, c)
		}
		sortCliques(d.Added)
		sortCliques(d.Removed)
		return d
	}
	for _, up := range batch {
		var diff Diff
		var stats Stats
		var err error
		if up.Remove {
			diff, stats, err = m.RemoveEdgeContext(ctx, up.U, up.V)
		} else {
			diff, stats, err = m.SetEdgeContext(ctx, up.U, up.V, up.P)
		}
		total.Updates += stats.Updates
		total.Rebuilt += stats.Rebuilt
		total.SearchCalls += stats.SearchCalls
		if err != nil {
			total.Status = stats.Status
			d := net()
			total.CliquesAdded = len(d.Added)
			total.CliquesRemoved = len(d.Removed)
			return d, total, err
		}
		merge(diff)
	}
	total.Status = core.StatusComplete
	d := net()
	total.CliquesAdded = len(d.Added)
	total.CliquesRemoved = len(d.Removed)
	return d, total, nil
}

func (m *Maintainer) checkPair(u, v int) error {
	if u == v {
		return fmt.Errorf("dynamic: edge {%d,%d}: %w", u, u, uncertain.ErrSelfLoop)
	}
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return fmt.Errorf("dynamic: edge {%d,%d} outside [0,%d): %w", u, v, m.n, uncertain.ErrVertexRange)
	}
	return nil
}

// refresh re-derives the maximal cliques containing u or v after the edge
// {u,v} changed, and applies the difference to the store. The clique store
// is only mutated after both neighborhood enumerations succeed, so an abort
// leaves it untouched and the caller can roll back the adjacency mutation
// for a fully atomic update.
func (m *Maintainer) refresh(ctx context.Context, u, v int) (Diff, Stats, error) {
	// Updates counts committed updates only — it is raised at the end, so
	// an aborted (rolled-back) refresh reports the rebuild work it did but
	// zero applied updates.
	var op Stats

	// Old affected cliques: those containing u or v.
	oldKeys := make(map[string][]int)
	for key := range m.byVertex[u] {
		oldKeys[key] = m.cliques[key]
	}
	for key := range m.byVertex[v] {
		oldKeys[key] = m.cliques[key]
	}

	// New affected cliques: maximal cliques through u plus those through v
	// in the updated graph (cliques containing both are found twice and
	// deduplicated by key).
	newKeys := make(map[string][]int)
	throughU, err := m.maximalCliquesThrough(ctx, u, &op)
	if err == nil {
		var throughV [][]int
		throughV, err = m.maximalCliquesThrough(ctx, v, &op)
		for _, c := range throughU {
			newKeys[key(c)] = c
		}
		for _, c := range throughV {
			newKeys[key(c)] = c
		}
	}
	if err != nil {
		op.Status = core.StatusOf(err)
		return Diff{}, op, fmt.Errorf("dynamic: update of edge {%d,%d} aborted: %w", u, v, err)
	}

	var diff Diff
	for k, c := range oldKeys {
		if _, still := newKeys[k]; !still {
			m.remove(k, c)
			diff.Removed = append(diff.Removed, append([]int(nil), c...))
		}
	}
	for k, c := range newKeys {
		if _, had := oldKeys[k]; !had {
			m.insert(c)
			diff.Added = append(diff.Added, append([]int(nil), c...))
		}
	}
	sortCliques(diff.Added)
	sortCliques(diff.Removed)
	op.Status = core.StatusComplete
	op.Updates = 1
	op.CliquesAdded = len(diff.Added)
	op.CliquesRemoved = len(diff.Removed)
	m.stats.Updates++
	m.stats.CliquesAdded += len(diff.Added)
	m.stats.CliquesRemoved += len(diff.Removed)
	return diff, op, nil
}

// maximalCliquesThrough returns the α-maximal cliques of the current graph
// that contain center. Any extender of such a clique is adjacent to center,
// so enumerating the induced subgraph on N[center] and keeping the cliques
// through center is exact. The enumeration runs under ctx and charges its
// work to both op and the cumulative stats.
func (m *Maintainer) maximalCliquesThrough(ctx context.Context, center int, op *Stats) ([][]int, error) {
	op.Rebuilt++
	m.stats.Rebuilt++
	// verts = {center} ∪ N(center), with center first; newID 0 = center.
	verts := make([]int, 0, len(m.adj[center])+1)
	verts = append(verts, center)
	for w := range m.adj[center] {
		verts = append(verts, w)
	}
	sort.Ints(verts[1:])
	oldToNew := make(map[int]int, len(verts))
	for i, w := range verts {
		oldToNew[w] = i
	}
	b := uncertain.NewBuilder(len(verts))
	for i, w := range verts {
		for x, p := range m.adj[w] {
			j, in := oldToNew[x]
			if in && i < j {
				// Cannot fail: pairs are distinct and p was validated.
				_ = b.AddEdge(i, j, p)
			}
		}
	}
	var out [][]int
	stats, err := core.EnumerateContext(ctx, b.Build(), m.alpha, func(c []int, _ float64) bool {
		through := false
		mapped := make([]int, len(c))
		for i, nv := range c {
			mapped[i] = verts[nv]
			if mapped[i] == center {
				through = true
			}
		}
		if through {
			sort.Ints(mapped)
			out = append(out, mapped)
		}
		return true
	}, core.Config{})
	op.SearchCalls += stats.Calls
	m.stats.SearchCalls += stats.Calls
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream returns the maintainer's current α-maximal cliques as a
// range-over-func stream in canonical order. The snapshot is taken when the
// stream is created, so concurrent use of the iterator does not observe
// later updates; each yielded slice is caller-owned. If ctx fires between
// yields the stream ends with one (nil, err) pair wrapping the cause.
// Like every Maintainer method, Stream itself is not safe for concurrent
// use with updates — wrap the maintainer in a mutex to share it.
func (m *Maintainer) Stream(ctx context.Context) iter.Seq2[[]int, error] {
	snapshot := m.Cliques()
	return func(yield func([]int, error) bool) {
		for _, c := range snapshot {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					yield(nil, fmt.Errorf("dynamic: clique stream aborted: %w", err))
					return
				}
			}
			if !yield(c, nil) {
				return
			}
		}
	}
}

func (m *Maintainer) insert(c []int) {
	k := key(c)
	if _, dup := m.cliques[k]; dup {
		return
	}
	stored := append([]int(nil), c...)
	m.cliques[k] = stored
	for _, v := range stored {
		m.byVertex[v][k] = true
	}
}

func (m *Maintainer) remove(k string, c []int) {
	delete(m.cliques, k)
	for _, v := range c {
		delete(m.byVertex[v], k)
	}
}

// key encodes a sorted clique as a compact string map key.
func key(c []int) string {
	buf := make([]byte, 0, len(c)*3)
	for _, v := range c {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

func sortCliques(cliques [][]int) {
	sort.Slice(cliques, func(i, j int) bool {
		a, b := cliques[i], cliques[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
