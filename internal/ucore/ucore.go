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
	// Budget, when > 0, bounds the number of η-degree recomputations the
	// run may perform before aborting with core.ErrBudget. One is charged
	// per vertex at the start and one per surviving neighbour of each peeled
	// vertex, whatever the DP behind it costs (see RunContext).
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

// abortCheckInterval is how many η-degree DPs, charged recomputes and
// uncharged refinements alike, pass at most between run-control polls;
// every abortCheckInterval-th charged recompute also charges the budget.
// Each DP runs over the vertex's surviving edges, O(d·c) at peel level c
// and O(d²) at worst — far heavier than a clique search node — so the
// cadence is finer than the clique kernel's 1024-node interval.
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
	distribution(dist, probs, d)
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

// distribution fills dist[0..limit] with the Poisson-binomial distribution
// of probs, dist[j] = Pr[deg = j], in O(len(probs)·limit) for limit ≤
// len(probs). dist must hold limit+1 entries; its previous contents are
// overwritten. Entry j of a DP step reads only entries j and j−1 of the
// step before, so the capped entries are bit-identical to the full DP's
// (limit = len(probs)). This is the package's one copy of the DP, so the
// peel and the exported helpers multiply the same floats in the same order.
func distribution(dist, probs []float64, limit int) {
	dist[0] = 1
	clear(dist[1 : limit+1])
	for i, p := range probs {
		// Walk downward so each probability is applied once.
		for j := min(i+1, limit); j >= 1; j-- {
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
	distribution(dist, probs, d)
	// Accumulate the tail from the top; the largest k whose tail reaches eta
	// is the η-degree. The sums only grow as k falls, so the k whose tail
	// reaches eta form a prefix 1..η-degree.
	tail := 0.0
	for k := d; k >= 1; k-- {
		tail += dist[k]
		if tail >= eta {
			return k
		}
	}
	return 0
}

// etaDegreeUpTo returns etaDegree(dist, probs, eta) when that is at most
// limit, with exact set, and the lower bound limit+1 otherwise. It fills
// only dist[0..limit] and decides "the top-down tail T_k reaches eta" for
// k = 1, …, limit+1 from L_k = 1 − (dist[0] + … + dist[k−1]) instead.
//
// L_k and T_k read the same DP entries D_j but round differently. With
// u = 2⁻⁵³ and M = Σ D_j:
//   - a DP step weighs the row by fl(1−p) + p = 1 ± u, then rounds each
//     entry's products and their sum, so it scales the mass by (1 ± u)³
//     and |M − 1| ≤ 3du to first order;
//   - T_k adds d−k non-negative terms: |T_k − Σ_{j≥k} D_j| ≤ (d−k)u·M;
//   - L_k adds k−1 terms and subtracts once:
//     |L_k − (1 − Σ_{j<k} D_j)| ≤ (k−1)u·M + u;
//   - 1 − Σ_{j<k} D_j = Σ_{j≥k} D_j + (1 − M).
//
// So |L_k − T_k| ≤ 4du to first order, and forming eta ± band rounds
// by at most 2u more. band = (8d + 8)u covers both twice over; products
// that underflow add at most 3d²·2⁻¹⁰⁷⁵, far below u. Outside the band L_k
// decides as T_k would; inside it the full DP and its top-down scan decide,
// counted in work.fallbacks.
func etaDegreeUpTo(dist, probs []float64, eta float64, limit int, work *peelWork) (deg int, exact bool) {
	d := len(probs)
	if 2*limit >= d {
		// A capped row would cost at least three quarters of the full one.
		return etaDegree(dist, probs, eta), true
	}
	distribution(dist, probs, limit)
	band := float64(8*d+8) * 0x1p-53
	below := 0.0 // dist[0] + … + dist[k−1]
	for k := 1; k <= limit+1; k++ {
		below += dist[k-1]
		switch tail := 1 - below; {
		case tail < eta-band:
			return k - 1, true
		case tail <= eta+band:
			work.fallbacks++
			return etaDegree(dist, probs, eta), true
		}
	}
	return limit + 1, false
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
	queue   peelQueue
	work    peelWork
	stats   *Stats
	ctl     *core.RunControl
	tick    int // charged recomputes left until the next charged poll
	dpTick  int // DPs, charged or not, left until the next poll
	stopped bool
}

// peelWork counts a run's uncharged DPs: refinements of popped lower
// bounds, and guard-band fallbacks to the full DP. Neither is one of the
// events Stats.Recomputes and the budget count.
type peelWork struct {
	refines   int64
	fallbacks int64
}

// etaDegreeOf recomputes u's η-degree over its surviving incident edges,
// exactly when it is at most limit and as the lower bound limit+1 otherwise
// (see etaDegreeUpTo). CSR rows ascend, so the DP sees the probabilities in
// neighbour-ID order: the distribution is order-independent in exact
// arithmetic but not in floats, and a fixed order keeps near-boundary
// η-degrees deterministic.
func (p *peeler) etaDegreeOf(u, limit int) (int, bool) {
	row, pr := p.g.Adjacency(u)
	removed, probs := p.removed, p.probs[:len(row)]
	n := 0
	for i, v := range row {
		// Copy unconditionally and keep the copy only if v survives: mid-run,
		// whether a neighbour is peeled is close to a coin flip, which a
		// branch would mispredict.
		probs[n] = pr[i]
		if !removed[v] {
			n++
		}
	}
	return etaDegreeUpTo(p.dist, probs[:n], p.eta, limit, &p.work)
}

// popMin removes and returns the unpeeled vertex of minimum η-degree,
// breaking ties toward the smallest ID, with its η-degree. A lower bound at
// the top of the queue is refined until an exact value surfaces. Every key
// is at most its vertex's η-degree, so no other vertex has a smaller
// (η-degree, ID) than that exact one.
//
// A bound at the top usually only has to sink below the next key, so its
// refinement doubles the cap (or takes the level's, if larger). A bound that
// a refinement raised and that surfaces again at the same level shows that
// every other key climbed past it too, as when a dense region's initial
// bounds climb together: the full DP settles it in one step instead of a
// chain of doublings.
//
// It returns ok false, having popped nothing, when a poll between
// refinements says the run must unwind.
func (p *peeler) popMin(current int) (v, deg int, ok bool) {
	for {
		top := p.queue.heap[0]
		if top.exact {
			p.queue.pop()
			return int(top.v), int(top.deg), true
		}
		if p.countRefine() {
			return 0, 0, false
		}
		limit := max(2*int(top.deg), current+1)
		if int(top.refinedAt) == current+1 {
			limit = p.g.Degree(int(top.v))
		}
		deg, exact := p.etaDegreeOf(int(top.v), limit)
		p.queue.set(queued{deg: int32(deg), v: top.v, exact: exact, refinedAt: int32(current + 1)})
	}
}

// peelQueue is an indexed binary min-heap of the unpeeled vertices, ordered
// by (deg, vertex ID). Its arrays are sized once per run, so no operation
// allocates.
type peelQueue struct {
	heap []queued // heap order
	pos  []int32  // pos[v]: v's index in heap
}

// queued is one vertex's key: its η-degree when exact, else a lower bound
// on it. refinedAt is the peel level plus one when a refinement set the key,
// and 0 when a charged recompute did.
type queued struct {
	deg       int32
	v         int32
	refinedAt int32
	exact     bool
}

func (a queued) before(b queued) bool {
	return a.deg < b.deg || a.deg == b.deg && a.v < b.v
}

func (q *peelQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i].v] = int32(i)
	q.pos[q.heap[j].v] = int32(j)
}

func (q *peelQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(q.heap[parent]) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *peelQueue) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(q.heap) {
			return
		}
		if r := m + 1; r < len(q.heap) && q.heap[r].before(q.heap[m]) {
			m = r
		}
		if !q.heap[m].before(q.heap[i]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

// set replaces the key of queued vertex k.v with k.
func (q *peelQueue) set(k queued) {
	i := int(q.pos[k.v])
	old := q.heap[i].deg
	q.heap[i] = k
	if k.deg < old {
		q.up(i)
	} else {
		q.down(i)
	}
}

// pop removes the minimum.
func (q *peelQueue) pop() {
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap = q.heap[:last]
	q.down(0)
}

// countRecompute accounts one charged η-degree recomputation and polls
// the run control; it returns true when the run must unwind. Every
// abortCheckInterval-th recompute charges the interval against the budget,
// so budget cut points fall where they always have.
func (p *peeler) countRecompute() bool {
	p.stats.Recomputes++
	p.tick--
	if p.tick > 0 {
		return p.countDP()
	}
	p.tick = abortCheckInterval
	return p.poll(abortCheckInterval)
}

// countRefine accounts one uncharged refinement; it returns true when the
// run must unwind.
func (p *peeler) countRefine() bool {
	p.work.refines++
	return p.countDP()
}

// countDP polls without charging once abortCheckInterval DPs of either
// kind have run since the last poll. One popMin can refine every unpeeled
// vertex, so refinements must count towards the poll cadence too, or a
// cancel, a deadline or the stall watchdog would wait out a stretch that
// grows with the graph. Without refinements the charged polls come first
// and this one never fires.
func (p *peeler) countDP() bool {
	p.dpTick--
	if p.dpTick > 0 {
		return false
	}
	return p.poll(0)
}

// poll polls the run control, charging charge recomputes.
func (p *peeler) poll(charge int64) bool {
	p.dpTick = abortCheckInterval
	if p.ctl.Poll(charge) {
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
//
// Only η-degrees up to the peel level plus one decide the order, so each
// recompute's DP is capped there: a vertex whose η-degree lies above the cap
// is queued under a lower bound, and the bound is refined only if it reaches
// the top of the queue. Outside a guard band around η the capped DP decides
// exactly as the full one would; inside it the full DP runs. Each recompute
// costs O(d·c) at level c instead of O(d²), and the queue replaces a scan of
// every vertex per peel with O(log n) work per key change. Stats.Recomputes
// and the budget count the recomputes the peel needs whatever their cost —
// one per vertex at the start, one per surviving neighbour of a peeled
// vertex — and not the refinements. Both kinds of DP count towards the
// run-control poll interval, so a cancel, a deadline or a stall is seen
// within 64 DPs of either kind.
func RunContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config, visit Visitor) (Stats, error) {
	stats, _, err := run(ctx, g, eta, cfg, visit)
	return stats, err
}

// run is RunContext that also returns the run's uncharged work.
func run(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config, visit Visitor) (Stats, peelWork, error) {
	var stats Stats
	if err := validateCoreArgs(g, eta, cfg); err != nil {
		return stats, peelWork{}, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		return stats, peelWork{}, finish(ctl, &stats, false)
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
		queue:   peelQueue{heap: make([]queued, n), pos: make([]int32, n)},
		stats:   &stats,
		ctl:     ctl,
		tick:    abortCheckInterval,
		dpTick:  abortCheckInterval,
	}
	for u := 0; u < n && !p.stopped; u++ {
		if p.countRecompute() {
			break
		}
		deg, exact := p.etaDegreeOf(u, 1) // the peel level is 0 until the first peel
		p.queue.heap[u] = queued{deg: int32(deg), v: int32(u), exact: exact}
		p.queue.pos[u] = int32(u)
	}
	for i := n/2 - 1; i >= 0; i-- {
		p.queue.down(i)
	}
	current := 0
	visitorStopped := false
	for peeled := 0; peeled < n && !p.stopped && !visitorStopped; peeled++ {
		best, bestDeg, ok := p.popMin(current)
		if !ok {
			break
		}
		current = max(current, bestDeg)
		stats.Degeneracy = max(stats.Degeneracy, current)
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
			deg, exact := p.etaDegreeOf(int(w), current+1)
			p.queue.set(queued{deg: int32(deg), v: w, exact: exact})
		}
	}
	return stats, p.work, finish(ctl, &stats, visitorStopped)
}

// Decompose computes the η-core decomposition of g by min-peeling:
// repeatedly remove a vertex of minimum η-degree, recording max-so-far as
// its core number. Each removal recomputes the η-degree of the affected
// neighbours from their surviving incident probabilities, exactly up to the
// peel level plus one (see RunContext).
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
