// Package ucore implements (k,η)-core decomposition of uncertain graphs —
// the dense-substructure direction the paper names as future work (§6,
// "various dense substructures … k-cores. Finding these dense substructures
// in the context of uncertain graphs can be an important future direction").
//
// Following Bonchi et al., the η-degree of a vertex v is the largest k such
// that v has at least k incident edges present simultaneously with
// probability ≥ η — formally, Pr[deg(v) ≥ k] ≥ η under the Poisson-binomial
// distribution of v's incident edges. The (k,η)-core is the largest induced
// subgraph in which every vertex has η-degree ≥ k within the subgraph, and
// the η-core number of v is the largest k such that v belongs to the
// (k,η)-core. The decomposition peels vertices of minimum η-degree exactly
// like the deterministic k-core algorithm.
package ucore

import (
	"context"
	"fmt"
	"time"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Config tunes a core decomposition run.
type Config struct {
	// Budget, when > 0, bounds the number of η-degree recomputations (the
	// O(d²) Poisson-binomial DPs that dominate the cost) the run may
	// perform before aborting with core.ErrBudget.
	Budget int64
	// Stall, when > 0, arms the stall watchdog: a run whose progress beacon
	// (stamped by every run-control poll) does not advance for this long is
	// aborted with an error wrapping core.ErrStalled.
	Stall time.Duration
}

// Stats reports the work performed by a core decomposition run.
type Stats struct {
	Status     core.RunStatus // how the run ended (complete, stopped, canceled, …)
	Recomputes int64          // η-degree recomputations (the charged work unit)
	Emitted    int64          // vertices reported with a final core number
	Degeneracy int            // largest core number seen so far
}

// VertexCore reports the η-core number of one vertex.
type VertexCore struct {
	V    int // vertex ID
	Core int // largest k such that v is in the (k,η)-core
}

// Visitor receives one vertex with its final η-core number, in peel order
// (non-decreasing core number). Returning false stops the peeling early.
type Visitor func(VertexCore) bool

// abortCheckInterval is how many η-degree recomputations pass between
// run-control polls. Each recompute is an O(d²) DP — far heavier than a
// clique search node — so the cadence is finer than the clique kernel's
// 1024-node interval.
const abortCheckInterval = 64

// DegreeTail returns Pr[deg ≥ k] where deg is the sum of independent
// Bernoulli variables with the given success probabilities (the
// Poisson-binomial tail). Computed by the standard O(d²) dynamic program.
func DegreeTail(probs []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	d := len(probs)
	if k > d {
		return 0
	}
	dist := make([]float64, d+1)
	distribution(dist, probs)
	tail := 0.0
	for j := k; j <= d; j++ {
		tail += dist[j]
	}
	return tail
}

// EtaDegree returns the largest k with Pr[deg ≥ k] ≥ eta (0 if none).
// The tail is non-increasing in k, so binary search would work; the DP
// already yields the full distribution, so a linear scan over the cumulative
// tail is used instead.
func EtaDegree(probs []float64, eta float64) int {
	if eta <= 0 || eta > 1 {
		panic("ucore: eta must be in (0,1]")
	}
	return etaDegree(make([]float64, len(probs)+1), probs, eta)
}

// distribution fills dist[0..len(probs)] with the Poisson-binomial
// distribution of probs: dist[j] = Pr[deg = j]. dist must hold
// len(probs)+1 entries; its previous contents are overwritten. This is the
// package's one copy of the DP, so the peel and the exported helpers
// multiply the same floats in the same order.
func distribution(dist, probs []float64) {
	dist[0] = 1
	clear(dist[1 : len(probs)+1])
	for i, p := range probs {
		// Walk downward so each probability is applied once.
		for j := i + 1; j >= 1; j-- {
			dist[j] = dist[j]*(1-p) + dist[j-1]*p
		}
		dist[0] *= 1 - p
	}
}

// etaDegree is EtaDegree with the DP row in caller-owned scratch (at least
// len(probs)+1 entries) and eta already validated.
func etaDegree(dist, probs []float64, eta float64) int {
	d := len(probs)
	if d == 0 {
		return 0
	}
	distribution(dist, probs)
	// Accumulate the tail from the top; the largest k whose tail reaches eta
	// is the η-degree.
	tail := 0.0
	for k := d; k >= 1; k-- {
		tail += dist[k]
		if tail >= eta {
			return k
		}
	}
	return 0
}

// Decomposition holds the result of an η-core decomposition.
type Decomposition struct {
	// CoreNumber[v] is the largest k such that v is in the (k,η)-core.
	CoreNumber []int
	// Degeneracy is the largest core number present.
	Degeneracy int
	// Order is the peeling order (vertices in non-decreasing core number).
	Order []int
}

// peeler carries the mutable min-peeling state and the run control. It
// reads adjacency from g's immutable CSR rows and skips peeled neighbours
// through removed, so the run keeps no mutable copy of the graph; probs and
// dist are the η-degree DP's scratch, sized once for the largest degree.
type peeler struct {
	g       *uncertain.Graph
	eta     float64
	removed []bool
	probs   []float64 // u's surviving incident probabilities, ascending neighbour order
	dist    []float64 // Poisson-binomial distribution over probs
	stats   *Stats
	ctl     *core.RunControl
	tick    int
	stopped bool
}

// etaDegreeOf recomputes u's η-degree over its surviving incident edges.
// CSR rows ascend, so the DP sees the probabilities in neighbour-ID order:
// the distribution is order-independent in exact arithmetic but not in
// floats, and a fixed order keeps near-boundary η-degrees deterministic.
func (p *peeler) etaDegreeOf(u int) int {
	row, pr := p.g.Adjacency(u)
	probs := p.probs[:0]
	for i, v := range row {
		if !p.removed[v] {
			probs = append(probs, pr[i])
		}
	}
	return etaDegree(p.dist, probs, p.eta)
}

// countRecompute accounts one η-degree recomputation and polls the run
// control on the interval; it returns true when the run must unwind.
func (p *peeler) countRecompute() bool {
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

// Validate checks the (graph, eta, config) triple every decomposition entry
// point accepts, returning the first violation wrapped around the matching
// sentinel (core.ErrNilGraph, core.ErrEtaRange, core.ErrConfig). The k of a
// specific core is validated by CoreContext (core.ErrKRange).
func Validate(g *uncertain.Graph, eta float64, cfg Config) error {
	return validateCoreArgs(g, eta, cfg)
}

func validateCoreArgs(g *uncertain.Graph, eta float64, cfg Config) error {
	if g == nil {
		return fmt.Errorf("ucore: %w", core.ErrNilGraph)
	}
	if !(eta > 0 && eta <= 1) { // also rejects NaN
		return fmt.Errorf("ucore: eta %v outside (0,1]: %w", eta, core.ErrEtaRange)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("ucore: negative Budget %d: %w", cfg.Budget, core.ErrConfig)
	}
	if cfg.Stall < 0 {
		return fmt.Errorf("ucore: negative Stall %v: %w", cfg.Stall, core.ErrConfig)
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
	return fmt.Errorf("ucore: core decomposition aborted after %d eta-degree recomputes: %w", stats.Recomputes, err)
}

// RunContext performs the η-core decomposition under ctx by min-peeling,
// streaming every vertex with its final core number to visit as it is
// peeled: the core number of the minimum-η-degree vertex is final the
// moment it is removed, so the visitor fires in peel order (non-decreasing
// core number) without waiting for the full decomposition. visit may be nil
// to only count. A visitor returning false stops the peeling early
// (StatusStopped, nil error); a context or budget abort returns an error
// wrapping the cause.
func RunContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config, visit Visitor) (Stats, error) {
	var stats Stats
	if err := validateCoreArgs(g, eta, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	n := g.NumVertices()
	maxDeg := 0
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	p := &peeler{
		g:       g,
		eta:     eta,
		removed: make([]bool, n),
		probs:   make([]float64, 0, maxDeg),
		dist:    make([]float64, maxDeg+1),
		stats:   &stats,
		ctl:     ctl,
		tick:    abortCheckInterval,
	}
	etaDeg := make([]int, n)
	for u := 0; u < n && !p.stopped; u++ {
		if p.countRecompute() {
			break
		}
		etaDeg[u] = p.etaDegreeOf(u)
	}
	current := 0
	visitorStopped := false
	for peeled := 0; peeled < n && !p.stopped && !visitorStopped; peeled++ {
		// Find the unremoved vertex of minimum η-degree. A bucket queue
		// would be asymptotically better; linear selection keeps the
		// recompute-heavy loop simple and is dwarfed by the O(d²) DPs. The
		// strict < breaks ties toward the smallest ID, which fixes the peel
		// order.
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if !p.removed[v] && etaDeg[v] < bestDeg {
				best, bestDeg = v, etaDeg[v]
			}
		}
		if bestDeg > current {
			current = bestDeg
		}
		if current > stats.Degeneracy {
			stats.Degeneracy = current
		}
		p.removed[best] = true
		stats.Emitted++
		if visit != nil && !visit(VertexCore{V: best, Core: current}) {
			visitorStopped = true
			break
		}
		row, _ := g.Adjacency(best)
		for _, w := range row {
			if p.removed[w] {
				continue
			}
			if p.countRecompute() {
				break
			}
			etaDeg[w] = p.etaDegreeOf(int(w))
		}
	}
	return stats, finish(ctl, &stats, visitorStopped)
}

// Decompose computes the η-core decomposition of g by min-peeling:
// repeatedly remove a vertex of minimum η-degree, recording max-so-far as
// its core number. Each removal recomputes the η-degree of the affected
// neighbors from their surviving incident probabilities (O(d²) per
// recompute).
func Decompose(g *uncertain.Graph, eta float64) (Decomposition, error) {
	dec, _, err := DecomposeContext(context.Background(), g, eta, Config{})
	return dec, err
}

// DecomposeContext is Decompose under ctx and explicit configuration,
// additionally returning the run's Stats.
func DecomposeContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config) (Decomposition, Stats, error) {
	var dec Decomposition
	stats, err := RunContext(ctx, g, eta, cfg, func(vc VertexCore) bool {
		if dec.CoreNumber == nil {
			dec.CoreNumber = make([]int, g.NumVertices())
		}
		dec.CoreNumber[vc.V] = vc.Core
		if vc.Core > dec.Degeneracy {
			dec.Degeneracy = vc.Core
		}
		dec.Order = append(dec.Order, vc.V)
		return true
	})
	if err != nil {
		return Decomposition{}, stats, err
	}
	if dec.CoreNumber == nil { // vertex-less graph
		dec.CoreNumber = []int{}
		dec.Order = []int{}
	}
	return dec, stats, nil
}

// Core returns the vertices of the (k,η)-core: the maximal induced subgraph
// where every vertex keeps η-degree ≥ k. Derived from the decomposition.
// k must be non-negative (every vertex is vacuously in the (0,η)-core).
func Core(g *uncertain.Graph, k int, eta float64) ([]int, error) {
	verts, _, err := CoreContext(context.Background(), g, k, eta, Config{})
	return verts, err
}

// CoreContext is Core under ctx and explicit configuration, additionally
// returning the run's Stats.
func CoreContext(ctx context.Context, g *uncertain.Graph, k int, eta float64, cfg Config) ([]int, Stats, error) {
	if k < 0 {
		return nil, Stats{}, fmt.Errorf("ucore: negative k %d: %w", k, core.ErrKRange)
	}
	dec, stats, err := DecomposeContext(ctx, g, eta, cfg)
	if err != nil {
		return nil, stats, err
	}
	var verts []int
	for v, c := range dec.CoreNumber {
		if c >= k {
			verts = append(verts, v)
		}
	}
	return verts, stats, nil
}
