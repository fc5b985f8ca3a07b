package ucluster

import (
	"container/heap"
	"context"
	"math"
	"sort"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// This file keeps the container/heap sweep that the typed push/pop
// replaced, as the reference of the differential tests: every heap entry
// is boxed into an interface on Push and unboxed on Pop, member lists grow
// by append, and the clusters are ordered with sort.Slice.

type refPQ []pqItem

func (q refPQ) Len() int { return len(q) }
func (q refPQ) Less(i, j int) bool {
	if q[i].p != q[j].p {
		return q[i].p > q[j].p
	}
	return q[i].v < q[j].v
}
func (q refPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any     { old := *q; it := old[len(old)-1]; *q = old[:len(old)-1]; return it }

type refSweeper struct {
	g     *uncertain.Graph
	conn  []float64
	pq    refPQ
	stats *Stats
	ctl   *core.RunControl
}

func (s *refSweeper) sweep(src int) bool {
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
		it := heap.Pop(&s.pq).(pqItem)
		if it.p < s.conn[it.v] {
			continue
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
				heap.Push(&s.pq, pqItem{w, np})
			}
		}
	}
	return true
}

func (s *refSweeper) sweepCenters(centers []int, a *assignment) bool {
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
		a.owner[c] = idx
		a.best[c] = 1
	}
	return true
}

// refRunContext is RunContext driven by refSweeper.
func refRunContext(ctx context.Context, g *uncertain.Graph, cfg Config, visit Visitor) (Stats, error) {
	var stats Stats
	if err := Validate(g, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) {
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	n := g.NumVertices()
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds
	}
	s := &refSweeper{g: g, conn: make([]float64, n), stats: &stats, ctl: ctl}
	a := &assignment{owner: make([]int, n), best: make([]float64, n)}
	a.reset()
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
	for u := range a.owner {
		if a.owner[u] < 0 {
			a.owner[u] = 0
		}
	}
	members := make([][]int, len(centers))
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
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Center < clusters[j].Center })
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
