// Package ucluster implements k-center clustering of uncertain graphs,
// after Ceccarello et al. ("Clustering Uncertain Graphs", arXiv
// 1612.06675): partition the vertices around k center vertices so that the
// expected connection probability between each vertex and its cluster
// center is maximized. Exact s–t reliability is #P-hard, so — as in the
// paper's practical instantiation — the connection probability is the
// most-reliable-path probability (the maximum over paths of the product of
// edge probabilities), computable exactly by a Dijkstra sweep per center.
//
// Centers are seeded farthest-first on the connection metric (the first
// center is the maximum-expected-degree vertex; each next center is the
// vertex worst-connected to the chosen set) and then refined Lloyd-style:
// each cluster re-centers on its member with the largest expected degree
// into the cluster, sweeps re-run from the new centers, and vertices
// re-assign, until the centers fix or MaxRounds elapses. Every choice
// breaks ties toward the smallest vertex ID, so runs are deterministic.
package ucluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Config tunes a clustering run.
type Config struct {
	// Centers is the number of clusters k; required, in [1, NumVertices].
	Centers int
	// MaxRounds caps the Lloyd-style refinement rounds after seeding;
	// 0 selects the default (8), negative is rejected.
	MaxRounds int
	// Budget, when > 0, bounds the number of center sweeps (one
	// most-reliable-path Dijkstra per center per round, seeding included —
	// the charged work unit) before aborting with core.ErrBudget.
	Budget int64
	// Stall, when > 0, arms the stall watchdog (see core.RunControl).
	Stall time.Duration
}

// defaultMaxRounds bounds refinement when Config.MaxRounds is zero.
const defaultMaxRounds = 8

// sweepPollInterval is how many Dijkstra pops pass between zero-charge
// run-control polls inside one sweep, keeping cancellation latency bounded
// on large components without charging the budget (sweeps are the unit).
const sweepPollInterval = 256

// Stats reports the work performed by a clustering run.
type Stats struct {
	Status    core.RunStatus // how the run ended
	Sweeps    int64          // most-reliable-path sweeps (the charged work unit)
	Rounds    int64          // refinement rounds that re-swept the centers
	Emitted   int64          // clusters reported to the visitor
	Converged bool           // centers fixed before MaxRounds elapsed
}

// Cluster is one cell of the partition: its center vertex, the members
// (ascending, center included), and the mean most-reliable-path connection
// probability of the members to the center (the center contributes 1;
// vertices unreachable from every center join the first cluster with 0).
type Cluster struct {
	Center      int
	Members     []int
	Probability float64
}

// Visitor receives one cluster at a time, in ascending center order.
// Returning false stops the report loop.
type Visitor func(Cluster) bool

// Validate checks the (graph, config) pair every entry point accepts,
// wrapping the first violation around the matching sentinel. The zero
// Centers from an omitted WithCenters is rejected here (core.ErrCentersRange).
func Validate(g *uncertain.Graph, cfg Config) error {
	if g == nil {
		return fmt.Errorf("ucluster: %w", core.ErrNilGraph)
	}
	if cfg.Centers < 1 || cfg.Centers > g.NumVertices() {
		return fmt.Errorf("ucluster: centers %d outside [1,%d]: %w", cfg.Centers, g.NumVertices(), core.ErrCentersRange)
	}
	if cfg.MaxRounds < 0 {
		return fmt.Errorf("ucluster: negative MaxRounds %d: %w", cfg.MaxRounds, core.ErrConfig)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("ucluster: negative Budget %d: %w", cfg.Budget, core.ErrConfig)
	}
	if cfg.Stall < 0 {
		return fmt.Errorf("ucluster: negative Stall %v: %w", cfg.Stall, core.ErrConfig)
	}
	return nil
}

// finish records the terminal status on stats and formats the abort error.
func finish(ctl *core.RunControl, stats *Stats, visitorStopped bool) error {
	stats.Status = ctl.Status(visitorStopped)
	err := ctl.Err()
	if err == nil {
		return nil
	}
	return fmt.Errorf("ucluster: clustering aborted after %d center sweeps: %w", stats.Sweeps, err)
}

// pqItem is one max-heap entry of the reliability Dijkstra.
type pqItem struct {
	v int32
	p float64
}

// maxPQ orders by descending probability, ties by ascending vertex ID, so
// the sweep's relaxation order — and therefore its float results — is
// deterministic. push and pop are container/heap's Push and Pop, sift steps
// included, on typed items: no interface boxing per entry.
type maxPQ []pqItem

func (q maxPQ) less(i, j int) bool {
	if q[i].p != q[j].p {
		return q[i].p > q[j].p
	}
	return q[i].v < q[j].v
}

// push adds it and sifts it up.
func (q *maxPQ) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the first item: swap it with the last, sift the
// new root down over the rest, then shrink.
func (q *maxPQ) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// sweeper holds the per-run Dijkstra state and run control.
type sweeper struct {
	g     *uncertain.Graph
	conn  []float64
	pq    maxPQ
	stats *Stats
	ctl   *core.RunControl
}

// sweep computes the most-reliable-path probability from src to every
// vertex into s.conn, charging one budget unit. It reports false when the
// run control aborted.
func (s *sweeper) sweep(src int) bool {
	s.stats.Sweeps++
	if s.ctl.Poll(1) {
		return false
	}
	for i := range s.conn {
		s.conn[i] = 0
	}
	s.conn[src] = 1
	s.pq = append(s.pq[:0], pqItem{int32(src), 1})
	tick := sweepPollInterval
	for len(s.pq) > 0 {
		it := s.pq.pop()
		if it.p < s.conn[it.v] {
			continue // stale entry superseded by a better path
		}
		tick--
		if tick <= 0 {
			tick = sweepPollInterval
			if s.ctl.Poll(0) {
				return false
			}
		}
		row, probs := s.g.Adjacency(int(it.v))
		for j, w := range row {
			if np := it.p * probs[j]; np > s.conn[w] {
				s.conn[w] = np
				s.pq.push(pqItem{w, np})
			}
		}
	}
	return true
}

// assignment is the mutable partition state: per-vertex owning center index
// and best connection probability.
type assignment struct {
	owner []int // index into the centers slice; -1 = unreached
	best  []float64
}

// reset clears the partition before a fresh round of sweeps.
func (a *assignment) reset() {
	for i := range a.owner {
		a.owner[i] = -1
		a.best[i] = 0
	}
}

// sweepCenters runs one sweep per center in order, folding each into the
// assignment (strictly better connection wins; equal keeps the earlier
// center; every center owns itself). It reports false on abort.
func (s *sweeper) sweepCenters(centers []int, a *assignment) bool {
	for idx, c := range centers {
		a.owner[c] = idx
		a.best[c] = 1
		if !s.sweep(c) {
			return false
		}
		for u := range a.owner {
			if s.conn[u] > a.best[u] {
				a.best[u] = s.conn[u]
				a.owner[u] = idx
			}
		}
		a.owner[c] = idx // the self-connection of 1 is never beaten strictly
		a.best[c] = 1
	}
	return true
}

// recenter picks each cluster's new center: the member with the largest
// expected degree into its own cluster (the cheap deterministic medoid
// proxy), ties toward the smallest ID. Clusters are never empty — every
// center owns itself — so the result has the same length, with distinct
// entries.
func recenter(g *uncertain.Graph, centers []int, a *assignment) []int {
	bestScore := make([]float64, len(centers))
	bestV := make([]int, len(centers))
	for i := range bestScore {
		bestScore[i] = -1
		bestV[i] = centers[i]
	}
	for u := 0; u < len(a.owner); u++ {
		cu := a.owner[u]
		if cu < 0 {
			continue
		}
		score := 0.0
		row, probs := g.Adjacency(u)
		for j, w := range row {
			if a.owner[w] == cu {
				score += probs[j]
			}
		}
		if score > bestScore[cu] {
			bestScore[cu] = score
			bestV[cu] = u
		}
	}
	return bestV
}

func sameCenters(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunContext clusters g under ctx: seed k centers farthest-first, refine
// Lloyd-style until the centers fix or MaxRounds elapses, then report each
// cluster to visit in ascending center order (visit may be nil to only
// count). Like the quasi-clique miner, the partition needs global
// knowledge, so the clustering runs to completion before the report loop.
// A visitor returning false stops the report (StatusStopped, nil error);
// context, budget, and stall aborts return an error wrapping the cause.
func RunContext(ctx context.Context, g *uncertain.Graph, cfg Config, visit Visitor) (Stats, error) {
	var stats Stats
	if err := Validate(g, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	n := g.NumVertices()
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	s := &sweeper{g: g, conn: make([]float64, n), stats: &stats, ctl: ctl}
	a := &assignment{owner: make([]int, n), best: make([]float64, n)}
	a.reset()

	// Farthest-first seeding: start from the maximum-expected-degree vertex,
	// then repeatedly add the vertex worst-connected to the chosen set (a
	// vertex in an uncovered component has connection 0 and is taken first,
	// so centers spread across components before they subdivide one).
	centers := make([]int, 0, cfg.Centers)
	isCenter := make([]bool, n)
	first, firstDeg := 0, -1.0
	for u := 0; u < n; u++ {
		if d := g.ExpectedDegree(u); d > firstDeg {
			first, firstDeg = u, d
		}
	}
	seed := func(c int) bool {
		idx := len(centers)
		centers = append(centers, c)
		isCenter[c] = true
		a.owner[c] = idx
		a.best[c] = 1
		if !s.sweep(c) {
			return false
		}
		for u := range a.owner {
			if s.conn[u] > a.best[u] {
				a.best[u] = s.conn[u]
				a.owner[u] = idx
			}
		}
		a.owner[c] = idx
		a.best[c] = 1
		return true
	}
	if !seed(first) {
		return stats, finish(ctl, &stats, false)
	}
	for len(centers) < cfg.Centers {
		next, worst := -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if !isCenter[u] && a.best[u] < worst {
				next, worst = u, a.best[u]
			}
		}
		if !seed(next) {
			return stats, finish(ctl, &stats, false)
		}
	}

	// Lloyd-style refinement: re-center, re-sweep, re-assign, until fixed.
	for round := 0; round < maxRounds; round++ {
		next := recenter(g, centers, a)
		if sameCenters(next, centers) {
			stats.Converged = true
			break
		}
		centers = next
		a.reset()
		if !s.sweepCenters(centers, a) {
			return stats, finish(ctl, &stats, false)
		}
		stats.Rounds++
	}

	// Vertices unreachable from every center (probability 0 everywhere)
	// join the first cluster so the result is a true partition.
	for u := range a.owner {
		if a.owner[u] < 0 {
			a.owner[u] = 0
		}
	}
	sizes := make([]int, len(centers))
	for _, idx := range a.owner {
		sizes[idx]++
	}
	members := make([][]int, len(centers))
	for idx, size := range sizes {
		members[idx] = make([]int, 0, size)
	}
	sums := make([]float64, len(centers))
	for u := 0; u < n; u++ {
		idx := a.owner[u]
		members[idx] = append(members[idx], u)
		sums[idx] += a.best[u]
	}
	clusters := make([]Cluster, len(centers))
	for idx, c := range centers {
		clusters[idx] = Cluster{Center: c, Members: members[idx], Probability: sums[idx] / float64(len(members[idx]))}
	}
	slices.SortFunc(clusters, func(a, b Cluster) int { return cmp.Compare(a.Center, b.Center) })
	visitorStopped := false
	for _, c := range clusters {
		stats.Emitted++
		if visit != nil && !visit(c) {
			visitorStopped = true
			break
		}
	}
	return stats, finish(ctl, &stats, visitorStopped)
}

// CollectContext materializes the partition in ascending center order.
func CollectContext(ctx context.Context, g *uncertain.Graph, cfg Config) ([]Cluster, Stats, error) {
	var out []Cluster
	stats, err := RunContext(ctx, g, cfg, func(c Cluster) bool {
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}
