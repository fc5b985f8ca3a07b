package udensest

import (
	"context"
	"math"
	"sort"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// This file keeps the map-based densest-subgraph miner that the CSR peel
// and the band-limited scorer replaced, as the reference of the
// differential tests: every vertex owns a mutable neighbour → probability
// map, candidates are copied out of the peel order and sorted, membership
// while scoring is a map, every DP entry is updated for every edge, and the
// family is ordered with sort.Slice.

type refPeeler struct {
	adj     []map[int32]float64
	expDeg  []float64
	removed []bool
	stats   *Stats
	ctl     *core.RunControl
	tick    int
}

func (p *refPeeler) countStep() bool {
	p.stats.PeelSteps++
	p.tick--
	if p.tick > 0 {
		return false
	}
	p.tick = abortCheckInterval
	return p.ctl.Poll(abortCheckInterval)
}

func newRefPeeler(g *uncertain.Graph, stats *Stats, ctl *core.RunControl) *refPeeler {
	n := g.NumVertices()
	p := &refPeeler{
		adj:     make([]map[int32]float64, n),
		expDeg:  make([]float64, n),
		removed: make([]bool, n),
		stats:   stats,
		ctl:     ctl,
		tick:    abortCheckInterval,
	}
	for u := 0; u < n; u++ {
		row, probs := g.Adjacency(u)
		p.adj[u] = make(map[int32]float64, len(row))
		sum := 0.0
		for i, v := range row {
			p.adj[u][v] = probs[i]
			sum += probs[i]
		}
		p.expDeg[u] = sum
	}
	return p
}

func (p *refPeeler) peelComponent(comp []int, cands *[]Candidate) bool {
	W := 0.0
	for _, u := range comp {
		W += p.expDeg[u]
	}
	W /= 2
	order := make([]int, 0, len(comp))
	best := -1.0
	type mark struct {
		idx     int
		density float64
	}
	var marks []mark
	for remaining := len(comp); remaining > 0; remaining-- {
		if density := W / float64(remaining); density > best {
			best = density
			marks = append(marks, mark{len(order), density})
		}
		bestV, bestDeg := -1, math.Inf(1)
		for _, v := range comp {
			if !p.removed[v] && p.expDeg[v] < bestDeg {
				bestV, bestDeg = v, p.expDeg[v]
			}
		}
		if p.countStep() {
			return false
		}
		p.removed[bestV] = true
		order = append(order, bestV)
		for w, pw := range p.adj[bestV] {
			if p.removed[w] {
				continue
			}
			p.expDeg[w] -= pw
			delete(p.adj[w], int32(bestV))
		}
		W -= bestDeg
		p.adj[bestV] = nil
	}
	for _, m := range marks {
		verts := append([]int(nil), order[m.idx:]...)
		sort.Ints(verts)
		*cands = append(*cands, Candidate{Vertices: verts, ExpectedDensity: m.density})
	}
	if best > p.stats.BestDensity {
		p.stats.BestDensity = best
	}
	return true
}

func refPeelAll(g *uncertain.Graph, stats *Stats, ctl *core.RunControl) (cands []Candidate, ok bool) {
	p := newRefPeeler(g, stats, ctl)
	for _, comp := range g.Components() {
		if !p.peelComponent(comp, &cands) {
			return nil, false
		}
	}
	stats.Candidates = len(cands)
	return cands, true
}

func refScoreChain(g *uncertain.Graph, chain []Candidate, dstar float64, stats *Stats, ctl *core.RunControl) bool {
	member := make(map[int]bool, len(chain[0].Vertices))
	dist := []float64{1}
	tick := abortCheckInterval
	for i := len(chain) - 1; i >= 0; i-- {
		for _, v := range chain[i].Vertices {
			if member[v] {
				continue
			}
			member[v] = true
			row, probs := g.Adjacency(v)
			for r, w := range row {
				if int(w) == v || !member[int(w)] {
					continue
				}
				tick--
				if tick <= 0 {
					tick = abortCheckInterval
					if ctl.Poll(0) {
						return false
					}
				}
				p := probs[r]
				dist = append(dist, 0)
				for j := len(dist) - 1; j >= 1; j-- {
					dist[j] = dist[j]*(1-p) + dist[j-1]*p
				}
				dist[0] *= 1 - p
			}
		}
		k := int(math.Ceil(dstar*float64(len(chain[i].Vertices)) - 1e-9))
		tail := 0.0
		switch {
		case k <= 0:
			tail = 1
		case k >= len(dist):
			tail = 0
		default:
			for j := k; j < len(dist); j++ {
				tail += dist[j]
			}
		}
		chain[i].Probability = tail
		stats.Scored++
	}
	return true
}

func refScoreAll(g *uncertain.Graph, cands []Candidate, dstar float64, stats *Stats, ctl *core.RunControl) bool {
	for start := 0; start < len(cands); {
		end := start + 1
		for end < len(cands) && isSubsetSorted(cands[end].Vertices, cands[end-1].Vertices) {
			end++
		}
		if !refScoreChain(g, cands[start:end], dstar, stats, ctl) {
			return false
		}
		start = end
	}
	return true
}

func refSortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Probability != b.Probability {
			return a.Probability > b.Probability
		}
		if a.ExpectedDensity != b.ExpectedDensity {
			return a.ExpectedDensity > b.ExpectedDensity
		}
		if len(a.Vertices) != len(b.Vertices) {
			return len(a.Vertices) < len(b.Vertices)
		}
		for x := range a.Vertices {
			if a.Vertices[x] != b.Vertices[x] {
				return a.Vertices[x] < b.Vertices[x]
			}
		}
		return false
	})
}

// refRunContext is RunContext driven by the reference peel, scorer and
// sort.
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
	cands, ok := refPeelAll(g, &stats, ctl)
	if !ok {
		return stats, finish(ctl, &stats, false)
	}
	if !refScoreAll(g, cands, BestDensity(cands), &stats, ctl) {
		return stats, finish(ctl, &stats, false)
	}
	refSortCandidates(cands)
	visitorStopped := false
	for _, c := range cands {
		stats.Emitted++
		if visit != nil && !visit(c) {
			visitorStopped = true
			break
		}
	}
	return stats, finish(ctl, &stats, visitorStopped)
}
