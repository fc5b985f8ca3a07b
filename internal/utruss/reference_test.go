package utruss

import (
	"context"
	"sort"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// This file keeps the map-based truss peeler that graphState replaced, as
// the reference of the differential tests: alive/inQueue are hash maps
// keyed by the canonical endpoint pair, wedge and triangle scans hash
// every edge they touch, the seed queue is sorted, and every support DP
// allocates its own row.

func edgeKey(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

type refState struct {
	g       *uncertain.Graph
	alive   map[[2]int32]bool
	stats   *Stats
	ctl     *core.RunControl
	tick    int
	stopped bool
}

func (s *refState) countCheck() bool {
	s.stats.Checks++
	s.tick--
	if s.tick > 0 {
		return false
	}
	s.tick = abortCheckInterval
	if s.ctl.Poll(abortCheckInterval) {
		s.stopped = true
		return true
	}
	return false
}

func newRefState(g *uncertain.Graph, stats *Stats, ctl *core.RunControl) *refState {
	s := &refState{
		g:     g,
		alive: make(map[[2]int32]bool, g.NumEdges()),
		stats: stats,
		ctl:   ctl,
		tick:  abortCheckInterval,
	}
	for _, e := range g.Edges() {
		s.alive[edgeKey(e.U, e.V)] = true
	}
	return s
}

func (s *refState) wedgeProbs(u, v int) []float64 {
	rowU, prU := s.g.Adjacency(u)
	rowV, prV := s.g.Adjacency(v)
	var qs []float64
	i, j := 0, 0
	for i < len(rowU) && j < len(rowV) {
		switch {
		case rowU[i] < rowV[j]:
			i++
		case rowU[i] > rowV[j]:
			j++
		default:
			w := int(rowU[i])
			if w != u && w != v &&
				s.alive[edgeKey(u, w)] && s.alive[edgeKey(v, w)] {
				qs = append(qs, prU[i]*prV[j])
			}
			i++
			j++
		}
	}
	return qs
}

func refTailProb(qs []float64, t int) float64 {
	if t <= 0 {
		return 1
	}
	if len(qs) < t {
		return 0
	}
	dp := make([]float64, t)
	dp[0] = 1
	atLeast := 0.0
	for _, q := range qs {
		atLeast += dp[t-1] * q
		for j := t - 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-q) + dp[j-1]*q
		}
		dp[0] *= 1 - q
	}
	return atLeast
}

func (s *refState) peel(t int, eta float64) [][2]int32 {
	var removed [][2]int32
	queue := make([][2]int32, 0, len(s.alive))
	inQueue := make(map[[2]int32]bool, len(s.alive))
	for k, ok := range s.alive {
		if ok {
			queue = append(queue, k)
			inQueue[k] = true
		}
	}
	sort.Slice(queue, func(i, j int) bool {
		if queue[i][0] != queue[j][0] {
			return queue[i][0] < queue[j][0]
		}
		return queue[i][1] < queue[j][1]
	})
	for len(queue) > 0 {
		if s.stopped {
			return removed
		}
		k := queue[0]
		queue = queue[1:]
		inQueue[k] = false
		if !s.alive[k] {
			continue
		}
		u, v := int(k[0]), int(k[1])
		if s.countCheck() {
			return removed
		}
		if refTailProb(s.wedgeProbs(u, v), t) >= eta {
			continue
		}
		s.alive[k] = false
		s.stats.Removed++
		removed = append(removed, k)
		for _, q := range s.triangleEdges(u, v) {
			if s.alive[q] && !inQueue[q] {
				queue = append(queue, q)
				inQueue[q] = true
			}
		}
	}
	return removed
}

func (s *refState) triangleEdges(u, v int) [][2]int32 {
	rowU, _ := s.g.Adjacency(u)
	rowV, _ := s.g.Adjacency(v)
	var out [][2]int32
	i, j := 0, 0
	for i < len(rowU) && j < len(rowV) {
		switch {
		case rowU[i] < rowV[j]:
			i++
		case rowU[i] > rowV[j]:
			j++
		default:
			w := int(rowU[i])
			uw, vw := edgeKey(u, w), edgeKey(v, w)
			if s.alive[uw] && s.alive[vw] {
				out = append(out, uw, vw)
			}
			i++
			j++
		}
	}
	return out
}

func (s *refState) export() (*uncertain.Graph, error) {
	b := uncertain.NewBuilder(s.g.NumVertices())
	for _, e := range s.g.Edges() {
		if s.alive[edgeKey(e.U, e.V)] {
			if err := b.AddEdge(e.U, e.V, e.P); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// refTrussContext is TrussContext driven by refState.
func refTrussContext(ctx context.Context, g *uncertain.Graph, k int, eta float64, cfg Config) (*uncertain.Graph, Stats, error) {
	var stats Stats
	if err := validateTrussArgs(g, k, eta, cfg); err != nil {
		return nil, stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) {
		return nil, stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	s := newRefState(g, &stats, ctl)
	s.peel(k-2, eta)
	if err := finish(ctl, &stats, false); err != nil {
		return nil, stats, err
	}
	tr, err := s.export()
	return tr, stats, err
}

// refRunContext is RunContext driven by refState.
func refRunContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config, visit Visitor) (Stats, error) {
	var stats Stats
	if err := validateTrussArgs(g, 2, eta, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) {
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	s := newRefState(g, &stats, ctl)
	alive := len(s.alive)
	visitorStopped := false
	for k := 3; alive > 0 && !s.stopped && !visitorStopped; k++ {
		removed := s.peel(k-2, eta)
		alive -= len(removed)
		for _, e := range removed {
			if s.stopped || ctl.Poll(0) {
				s.stopped = true
				break
			}
			et := EdgeTruss{U: int(e[0]), V: int(e[1]), Truss: k - 1}
			stats.Emitted++
			if et.Truss > stats.MaxTruss {
				stats.MaxTruss = et.Truss
			}
			if visit != nil && !visit(et) {
				visitorStopped = true
				break
			}
		}
	}
	return stats, finish(ctl, &stats, visitorStopped)
}
