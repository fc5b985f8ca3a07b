// Package udensest implements most-probable densest-subgraph mining on
// uncertain graphs, following the peel-then-score recipe of Saha et al.
// ("Most Probable Densest Subgraphs", arXiv 2212.08820): a greedy
// min-expected-degree peeling builds a small family of candidate subgraphs
// (Charikar's argument gives the family's best member a 2-approximation of
// the maximum expected density), and each candidate is then scored with the
// probability — under the independent-edge model — that it realizes the
// family's champion density in a sampled world, computed by a float64 DP
// that flushes its subnormal band ends (see Candidate for the bound).
//
// The peeling runs per support component (a densest subgraph never spans
// two components: the density of a disjoint union is at most the larger of
// the parts' densities), recording a candidate each time the suffix density
// strictly improves on the best seen so far within that component. The
// candidate family is therefore identical whether the graph is mined whole
// or component-sharded, which is what lets WithShards keep its
// same-answer contract at the query layer.
package udensest

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

// Config tunes a densest-subgraph mining run.
type Config struct {
	// Budget, when > 0, bounds the number of peel steps (vertex removals,
	// the charged work unit) before the run aborts with core.ErrBudget.
	// Charged in batches of the poll interval, so runs can overshoot
	// slightly.
	Budget int64
	// Stall, when > 0, arms the stall watchdog: a run whose progress beacon
	// does not advance for this long is aborted wrapping core.ErrStalled.
	Stall time.Duration
}

// Stats reports the work performed by a densest-subgraph run.
type Stats struct {
	Status      core.RunStatus // how the run ended
	PeelSteps   int64          // vertices peeled (the charged work unit)
	Scored      int64          // candidates given a probability score
	Emitted     int64          // candidates reported to the visitor
	Candidates  int            // size of the candidate prefix family
	BestDensity float64        // champion expected density d̂ across the family
}

// Candidate is one member of the peel family: a vertex set, its expected
// density (sum of internal edge probabilities over the vertex count), and
// the probability that its realized internal edge count reaches ⌈d̂·|S|⌉
// edges, where d̂ is the family's best expected density. The candidate
// maximizing that probability is the most probable densest subgraph of the
// family. Vertices is sorted ascending and caller-owned.
//
// Probability comes from a float64 Poisson-binomial DP that flushes entries
// below 2⁻¹⁰²², the smallest normal float64, to zero at the ends of its
// band. With m the candidate's internal edge count, it differs from the
// exact tail by a relative rounding error of order m·2⁻⁵³ plus at most
// (m+1)·2⁻¹⁰²² of flushed mass: a tail far above (m+1)·2⁻¹⁰²² keeps its
// relative precision, and one below it may read 0.
type Candidate struct {
	Vertices        []int
	ExpectedDensity float64
	Probability     float64
}

// Visitor receives one scored candidate at a time, best first (descending
// Probability, ties by descending ExpectedDensity, then smaller size, then
// lexicographic vertices). Returning false stops the report loop.
type Visitor func(Candidate) bool

// abortCheckInterval is how many peel steps (or scoring-DP columns) pass
// between run-control polls. A peel step is a linear min-scan plus neighbor
// updates — heavier than a clique search node — so the cadence matches
// ucore's 64 rather than the kernel's 1024.
const abortCheckInterval = 64

// flushFloor is the smallest normal float64, 2⁻¹⁰²². The scoring DP sets
// an entry at either end of its band below it to +0 (see scoreChain).
const flushFloor = 0x1p-1022

// Validate checks the (graph, config) pair every entry point accepts,
// wrapping the first violation around the matching sentinel.
func Validate(g *uncertain.Graph, cfg Config) error {
	if g == nil {
		return fmt.Errorf("udensest: %w", core.ErrNilGraph)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("udensest: negative Budget %d: %w", cfg.Budget, core.ErrConfig)
	}
	if cfg.Stall < 0 {
		return fmt.Errorf("udensest: negative Stall %v: %w", cfg.Stall, core.ErrConfig)
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
	return fmt.Errorf("udensest: densest-subgraph mining aborted after %d peel steps: %w", stats.PeelSteps, err)
}

// peeler carries the mutable peel state shared across components. It reads
// adjacency from g's immutable CSR rows and skips peeled neighbours through
// removed; pos records each vertex's peel position within its component,
// which is all a candidate's vertex set needs.
type peeler struct {
	g       *uncertain.Graph
	expDeg  []float64
	removed []bool
	pos     []int32 // pos[v]: how many vertices of v's component were peeled before v
	marks   []mark  // the current component's density improvements
	stats   *Stats
	ctl     *core.RunControl
	tick    int
}

// mark records a strict density improvement: the suffix of the peel order
// from position idx on has expected density density.
type mark struct {
	idx     int32
	density float64
}

// countStep accounts one peel step and polls the run control on the
// interval; it returns true when the run must unwind.
func (p *peeler) countStep() bool {
	p.stats.PeelSteps++
	p.tick--
	if p.tick > 0 {
		return false
	}
	p.tick = abortCheckInterval
	return p.ctl.Poll(abortCheckInterval)
}

// newPeeler builds the per-run peel state for the whole graph once;
// components consume disjoint parts of it.
func newPeeler(g *uncertain.Graph, stats *Stats, ctl *core.RunControl) *peeler {
	n := g.NumVertices()
	p := &peeler{
		g:       g,
		expDeg:  make([]float64, n),
		removed: make([]bool, n),
		pos:     make([]int32, n),
		stats:   stats,
		ctl:     ctl,
		tick:    abortCheckInterval,
	}
	for u := 0; u < n; u++ {
		p.expDeg[u] = g.ExpectedDegree(u)
	}
	return p
}

// peelComponent peels one component to exhaustion, appending a candidate
// each time the suffix density strictly improves. It reports false when the
// run control aborted mid-peel.
func (p *peeler) peelComponent(comp []int, cands *[]Candidate) bool {
	// W is the expected internal edge count of the surviving suffix; every
	// accumulation below runs in a fixed (ascending-ID, then peel) order so
	// the float results are bit-identical between whole-graph and
	// per-component-shard runs.
	W := 0.0
	for _, u := range comp {
		W += p.expDeg[u]
	}
	W /= 2
	best := -1.0
	if cap(p.marks) < len(comp) {
		p.marks = make([]mark, 0, len(comp))
	}
	marks := p.marks[:0]
	for step := range len(comp) {
		if density := W / float64(len(comp)-step); density > best {
			best = density
			marks = append(marks, mark{int32(step), density})
		}
		// Select the minimum-expected-degree survivor; comp is ascending, so
		// the strict < breaks ties toward the smallest ID.
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
		p.pos[bestV] = int32(step)
		row, probs := p.g.Adjacency(bestV)
		for i, w := range row {
			if !p.removed[w] {
				p.expDeg[w] -= probs[i]
			}
		}
		W -= bestDeg
	}
	// A candidate is the suffix of the peel order from its mark on; reading
	// it off the ascending component keeps its vertex set ascending.
	*cands = slices.Grow(*cands, len(marks))
	for _, m := range marks {
		verts := make([]int, 0, len(comp)-int(m.idx))
		for _, v := range comp {
			if p.pos[v] >= m.idx {
				verts = append(verts, v)
			}
		}
		*cands = append(*cands, Candidate{Vertices: verts, ExpectedDensity: m.density})
	}
	if best > p.stats.BestDensity {
		p.stats.BestDensity = best
	}
	return true
}

// peelAll peels every component of g, returning the unscored candidate
// family (components in smallest-member order, candidates in discovery
// order within each). ok is false when the run control aborted.
func peelAll(g *uncertain.Graph, stats *Stats, ctl *core.RunControl) (cands []Candidate, ok bool) {
	p := newPeeler(g, stats, ctl)
	for _, comp := range g.Components() {
		if !p.peelComponent(comp, &cands) {
			return nil, false
		}
	}
	stats.Candidates = len(cands)
	return cands, true
}

// BestDensity returns the family's champion expected density d̂ (0 for an
// empty family).
func BestDensity(cands []Candidate) float64 {
	best := 0.0
	for _, c := range cands {
		if c.ExpectedDensity > best {
			best = c.ExpectedDensity
		}
	}
	return best
}

// isSubsetSorted reports whether a ⊆ b for ascending-sorted slices.
func isSubsetSorted(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// scorer holds the scoring pass's per-run scratch: member marks the
// vertices of the chain entered so far, and dist is the DP row.
type scorer struct {
	g      *uncertain.Graph
	member []bool
	dist   []float64
	stats  *Stats
	ctl    *core.RunControl
}

// scoreChain scores one nested peel chain (chain[0] ⊃ chain[1] ⊃ …, the
// suffixes of one component's peel order) with a single incremental
// Poisson-binomial DP. Walking the chain smallest candidate first, each
// vertex's internal edges enter the distribution exactly once, and a
// candidate's Pr[X ≥ ⌈d̂·|S|⌉] is read off the distribution the moment its
// vertex set is complete. A whole chain therefore costs one O(m²) DP — m
// the largest member's edge count — where rescoring every candidate from
// scratch cost O(|chain|·m²) and made large peel families (hundreds of
// near-full suffixes on a preferential-attachment graph) the dominant term
// of the run.
//
// Only the DP's band [lo, hi] is updated. Every entry outside it is +0,
// and an entry whose own and lower neighbour's values are +0 stays +0 under
// x·(1−p) + y·p, so skipping it changes nothing. After each edge's update,
// an entry at either end of the band below flushFloor is set to +0 and the
// band shrinks past it. Far from the mean the distribution decays through
// ~1,000 binary orders before it underflows, and arithmetic on the
// subnormal entries on the way took about two thirds of the scoring time.
//
// The flush bounds its own error. The band starts one entry wide, grows by
// one per edge and loses one per flush, so after m edges at most m flushes
// have each removed an entry below flushFloor. Each update is a convex
// combination, which never amplifies the mass taken out, so a candidate
// with m internal edges reads within m·flushFloor of the unflushed DP in
// exact arithmetic. The stated bound, (m+1)·flushFloor, leaves one
// flushFloor for products that round in the subnormal range (each off by
// at most 2⁻¹⁰⁷⁵). Both sit beside the DP's relative rounding error, of
// order m·2⁻⁵³.
//
// Run-control polls are woven through the edge loop so a deadline or
// cancellation aborts mid-score; ok is false on abort. Nothing is charged
// against the budget — peel steps are the budgeted unit.
func (s *scorer) scoreChain(chain []Candidate, dstar float64) bool {
	// Half the degree sum of the chain's largest member bounds its internal
	// edges, and so the DP's length.
	edges := 0
	for _, v := range chain[0].Vertices {
		edges += s.g.Degree(v)
	}
	if cap(s.dist) < edges/2+1 {
		s.dist = make([]float64, 0, edges/2+1)
	}
	member := s.member
	dist := append(s.dist[:0], 1) // dist[j] = Pr[exactly j internal edges realized]
	lo, hi := 0, 0                // every nonzero entry of dist lies in [lo, hi]
	tick := abortCheckInterval
	for i := len(chain) - 1; i >= 0; i-- {
		for _, v := range chain[i].Vertices {
			if member[v] {
				continue
			}
			member[v] = true
			row, probs := s.g.Adjacency(v)
			for r, w := range row {
				if !member[w] {
					continue
				}
				tick--
				if tick <= 0 {
					tick = abortCheckInterval
					if s.ctl.Poll(0) {
						return false
					}
				}
				p := probs[r]
				q := 1 - p
				dist = append(dist, 0)
				hi++
				// Each entry's lower neighbour is loaded once and carried
				// down as the next entry's own value. Below lo every entry
				// is +0, so dist[lo] takes x·(1−p) alone.
				x := dist[hi]
				for j := hi; j > lo; j-- {
					y := dist[j-1]
					dist[j] = x*q + y*p
					x = y
				}
				dist[lo] = x * q
				for lo < hi && dist[lo] < flushFloor {
					dist[lo] = 0
					lo++
				}
				for hi > lo && dist[hi] < flushFloor {
					dist[hi] = 0
					hi--
				}
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
			for j := max(k, lo); j <= hi; j++ {
				tail += dist[j]
			}
		}
		chain[i].Probability = tail
		s.stats.Scored++
	}
	for _, v := range chain[0].Vertices { // the nested chain's union
		member[v] = false
	}
	return true
}

// scoreAll fills every candidate's Probability: the chance its realized
// edge count reaches ⌈dstar·|S|⌉, within Candidate's bound. Candidates arrive as
// concatenated nested chains — one per peeled component — and the chain
// boundaries are re-detected here with the subset test rather than carried
// alongside, so the sharded driver's completion-order concatenation scores
// through the same code as the serial path (disjoint components can never
// pass the subset test, so a boundary is never missed). It reports false on
// a mid-score abort.
func scoreAll(g *uncertain.Graph, cands []Candidate, dstar float64, stats *Stats, ctl *core.RunControl) bool {
	s := &scorer{g: g, member: make([]bool, g.NumVertices()), stats: stats, ctl: ctl}
	for start := 0; start < len(cands); {
		end := start + 1
		for end < len(cands) && isSubsetSorted(cands[end].Vertices, cands[end-1].Vertices) {
			end++
		}
		if !s.scoreChain(cands[start:end], dstar) {
			return false
		}
		start = end
	}
	return true
}

// SortCandidates orders a family canonically: descending Probability, then
// descending ExpectedDensity, then smaller size, then lexicographic
// vertices. The head of the sorted family is the most probable densest
// subgraph.
func SortCandidates(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.Probability != b.Probability {
			return cmp.Compare(b.Probability, a.Probability)
		}
		if a.ExpectedDensity != b.ExpectedDensity {
			return cmp.Compare(b.ExpectedDensity, a.ExpectedDensity)
		}
		if len(a.Vertices) != len(b.Vertices) {
			return cmp.Compare(len(a.Vertices), len(b.Vertices))
		}
		return slices.Compare(a.Vertices, b.Vertices)
	})
}

// RunContext mines the candidate family of g under ctx — peel every
// component, score the family against its champion density, sort — and
// reports each scored candidate to visit in canonical order (visit may be
// nil to only count). Like the quasi-clique miner, the answer needs global
// knowledge, so the mining runs to completion before the report loop; the
// WithLimit analogue therefore lives in the caller's visitor. A visitor
// returning false stops the report (StatusStopped, nil error); context,
// budget, and stall aborts return an error wrapping the cause.
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
	cands, ok := peelAll(g, &stats, ctl)
	if !ok {
		return stats, finish(ctl, &stats, false)
	}
	if !scoreAll(g, cands, BestDensity(cands), &stats, ctl) {
		return stats, finish(ctl, &stats, false)
	}
	SortCandidates(cands)
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

// CollectContext materializes the scored candidate family in canonical
// order.
func CollectContext(ctx context.Context, g *uncertain.Graph, cfg Config) ([]Candidate, Stats, error) {
	var out []Candidate
	stats, err := RunContext(ctx, g, cfg, func(c Candidate) bool {
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// PeelContext runs only the peel phase, returning the unscored candidate
// family. The component-sharded driver uses it to mine each component
// independently before a single global scoring pass (the score threshold d̂
// is a whole-family property).
func PeelContext(ctx context.Context, g *uncertain.Graph, cfg Config) ([]Candidate, Stats, error) {
	var stats Stats
	if err := Validate(g, cfg); err != nil {
		return nil, stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) {
		return nil, stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	cands, ok := peelAll(g, &stats, ctl)
	if !ok {
		return nil, stats, finish(ctl, &stats, false)
	}
	return cands, stats, finish(ctl, &stats, false)
}

// ScoreContext runs only the scoring phase against an externally supplied
// champion density, mutating each candidate's Probability in place. The
// candidates' vertex IDs must be valid in g (the sharded driver passes the
// parent graph: a component's internal edges are the same set either way).
// Budget is not charged — scoring is poll-only — but cancellation,
// deadlines, and the stall watchdog apply.
func ScoreContext(ctx context.Context, g *uncertain.Graph, cands []Candidate, dstar float64, cfg Config) (Stats, error) {
	var stats Stats
	if err := Validate(g, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, 0)
	if ctl.Poll(0) {
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	if !scoreAll(g, cands, dstar, &stats, ctl) {
		return stats, finish(ctl, &stats, false)
	}
	return stats, finish(ctl, &stats, false)
}
