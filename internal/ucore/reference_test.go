package ucore

import (
	"context"
	"sort"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// This file keeps the map-based core peeler that the CSR peeler replaced,
// as the reference of the differential tests: every vertex owns a mutable
// neighbour → probability map, a peel deletes itself from its neighbours'
// maps, and every η-degree recompute collects, sorts and copies its map
// before running a freshly allocated DP.

type refPeeler struct {
	eta     float64
	adj     []map[int32]float64
	stats   *Stats
	ctl     *core.RunControl
	tick    int
	stopped bool
}

func (p *refPeeler) countRecompute() bool {
	p.stats.Recomputes++
	p.tick--
	if p.tick > 0 {
		return false
	}
	p.tick = abortCheckInterval
	if p.ctl.Poll(abortCheckInterval) {
		p.stopped = true
		return true
	}
	return false
}

func refEtaDegree(probs []float64, eta float64) int {
	d := len(probs)
	if d == 0 {
		return 0
	}
	dist := make([]float64, d+1)
	dist[0] = 1
	for i, p := range probs {
		for j := i + 1; j >= 1; j-- {
			dist[j] = dist[j]*(1-p) + dist[j-1]*p
		}
		dist[0] *= 1 - p
	}
	tail := 0.0
	for k := d; k >= 1; k-- {
		tail += dist[k]
		if tail >= eta {
			return k
		}
	}
	return 0
}

func refEtaDegreeOf(nbrs map[int32]float64, eta float64) int {
	if len(nbrs) == 0 {
		return 0
	}
	ids := make([]int32, 0, len(nbrs))
	for v := range nbrs {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	probs := make([]float64, len(ids))
	for i, v := range ids {
		probs[i] = nbrs[v]
	}
	return refEtaDegree(probs, eta)
}

// refRunContext is RunContext driven by refPeeler.
func refRunContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config, visit Visitor) (Stats, error) {
	var stats Stats
	if err := validateCoreArgs(g, eta, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) {
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	n := g.NumVertices()
	p := &refPeeler{eta: eta, adj: make([]map[int32]float64, n), stats: &stats, ctl: ctl, tick: abortCheckInterval}
	for u := 0; u < n; u++ {
		row, probs := g.Adjacency(u)
		p.adj[u] = make(map[int32]float64, len(row))
		for i, v := range row {
			p.adj[u][v] = probs[i]
		}
	}
	etaDeg := make([]int, n)
	for u := 0; u < n && !p.stopped; u++ {
		if p.countRecompute() {
			break
		}
		etaDeg[u] = refEtaDegreeOf(p.adj[u], eta)
	}
	removed := make([]bool, n)
	current := 0
	visitorStopped := false
	for peeled := 0; peeled < n && !p.stopped && !visitorStopped; peeled++ {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !removed[v] && etaDeg[v] < bestDeg {
				best, bestDeg = v, etaDeg[v]
			}
		}
		if bestDeg > current {
			current = bestDeg
		}
		if current > stats.Degeneracy {
			stats.Degeneracy = current
		}
		removed[best] = true
		stats.Emitted++
		if visit != nil && !visit(VertexCore{V: best, Core: current}) {
			visitorStopped = true
			break
		}
		for w := range p.adj[best] {
			if removed[w] {
				continue
			}
			delete(p.adj[w], int32(best))
			if p.countRecompute() {
				break
			}
			etaDeg[w] = refEtaDegreeOf(p.adj[w], eta)
		}
		p.adj[best] = nil
	}
	return stats, finish(ctl, &stats, visitorStopped)
}
