// Package utruss computes (k,η)-truss decompositions of an uncertain graph
// — a third entry in the paper's future-work list of dense substructures
// (§6), following the probabilistic-truss line of Huang, Lu and Lakshmanan.
//
// In a deterministic graph the support of an edge e = {u,v} in a subgraph H
// is the number of triangles of H through e, and the k-truss is the maximal
// subgraph whose every edge has support ≥ k−2. In an uncertain graph the
// support of e within H becomes a random variable: for each common neighbor
// w of u and v in H, the wedge {u,w},{v,w} is present with probability
// q_w = p(u,w)·p(v,w), and wedges over distinct w share no edges, so they
// are independent. The support therefore follows a Poisson-binomial
// distribution whose tail P[supp ≥ t] is computed exactly by dynamic
// programming (no sampling involved).
//
// For k ≥ 2 and η ∈ (0, 1], the (k,η)-truss of G is the maximal edge
// subgraph H such that every edge e ∈ H satisfies
//
//	P[supp_H(e) ≥ k−2] ≥ η.
//
// The condition is monotone under edge removal (removing edges never raises
// another edge's support distribution), so the family of qualifying
// subgraphs is union-closed and the maximal one is unique; Truss computes it
// by iterative peeling, and Decompose assigns every edge its η-truss number
// (the largest k whose truss retains it) by peeling level by level.
//
// Support probabilities are conditional on the edge e itself: they quantify
// how well e's neighborhood supports it, independently of e's own existence
// probability, which is the convention that makes the k=2 floor exact
// (P[supp ≥ 0] = 1, so the (2,η)-truss is all of E for every η).
package utruss

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

// EdgeTruss reports the η-truss number of one edge.
type EdgeTruss struct {
	U, V  int // endpoints, U < V
	Truss int // largest k such that the (k,η)-truss contains the edge; ≥ 2
}

// Config tunes a truss computation.
type Config struct {
	// Budget, when > 0, bounds the number of support-probability
	// evaluations (the Poisson-binomial tail DPs that dominate the cost)
	// the run may perform before aborting with core.ErrBudget.
	Budget int64
	// Stall, when > 0, arms the stall watchdog: a run whose progress beacon
	// (stamped by every run-control poll) does not advance for this long is
	// aborted with an error wrapping core.ErrStalled.
	Stall time.Duration
}

// Stats reports the work performed by a truss computation.
type Stats struct {
	Status   core.RunStatus // how the run ended (complete, stopped, canceled, …)
	Checks   int64          // support-probability evaluations (tail DPs)
	Removed  int64          // edges peeled across all levels
	Emitted  int64          // edges reported with a final truss number
	MaxTruss int            // largest truss number seen (Decompose paths)
}

// Visitor receives one edge with its final η-truss number, in peel order
// (level by level; within a level, deterministic queue order). Returning
// false stops the computation early.
type Visitor func(EdgeTruss) bool

// abortCheckInterval is how many support-probability evaluations pass
// between run-control polls. Each evaluation is a full Poisson-binomial DP
// — far heavier than a clique search node — so the cadence is finer than
// the clique kernel's 1024-node interval.
const abortCheckInterval = 64

// maxWedgesPerEdge bounds the wedge index. An edge {u,v} has at most
// min(deg u, deg v) − 1 wedges, and the build finds them by scanning
// min(deg u, deg v) row slots, so a graph whose edges average at most this
// many potential wedges builds its index in O(n + m) time and memory, at
// most 256 bytes per edge. A denser graph, whose wedges grow with its
// triangles rather than its edges, runs without an index.
const maxWedgesPerEdge = 32

// buildPollInterval is how many scanned row slots pass between run-control
// polls while the wedge index is built.
const buildPollInterval = 1 << 16

// graphState is the mutable peeling state over one uncertain graph, kept in
// flat per-run arrays instead of maps keyed by edge.
//
// Every edge {u,v}, u < v, has an ID: its rank in (u, v) order, which is
// also its index in g.Edges(). slotEdge gives, for every slot of every CSR
// row, the ID of the edge stored there, so the same edge resolves to the
// same ID from either endpoint's row; it is built once in O(n + m) (rowStart
// is the rows' prefix sum).
//
// The wedge index lists, for every edge {u,v}, its common neighbours w in
// ascending order, each as the pair (ID of {u,w}, ID of {v,w}): 8 bytes per
// (edge, wedge) incidence. buildWedges builds it once per run when the
// graph is sparse enough (maxWedgesPerEdge). aliveWedges hands wedgeProbs
// and queueTriangleEdges an edge's wedges whose two edges are alive, from
// its list or, without an index, by merging the two endpoint rows. The
// work queue is a FIFO ring over edge IDs (an edge is queued at most once
// at a time, so m slots suffice), and pairs/qs/dp are one check's scratch,
// sized for the largest degree.
type graphState struct {
	g          *uncertain.Graph
	rowStart   []int32    // rowStart[u]: index of u's first slot in slotEdge
	slotEdge   []int32    // slotEdge[rowStart[u]+i]: ID of the edge in slot i of u's row
	ends       [][2]int32 // ends[id]: the edge's endpoints, U < V
	prob       []float64  // prob[id]: the edge's probability
	wedgeStart []int32    // wedges[wedgeStart[id]:wedgeStart[id+1]] is edge id's list; nil without an index
	wedges     [][2]int32 // (ID of {u,w}, ID of {v,w}) per common neighbour w, ascending w
	alive      []bool     // by edge ID
	inQueue    []bool     // by edge ID
	queue      []int32    // FIFO ring of edge IDs
	head       int        // queue[head] is the next edge to check
	queued     int        // entries in the ring
	removed    []int32    // edge IDs peeled by the current peel call, in order
	pairs      [][2]int32 // alive wedges of the edge being checked
	qs         []float64  // wedge probabilities of the edge being checked
	dp         []float64  // support-tail DP row
	stats      *Stats
	ctl        *core.RunControl
	tick       int
	stopped    bool
}

// countCheck accounts one support-probability evaluation and polls the run
// control on the interval; it returns true when the run must unwind.
func (s *graphState) countCheck() bool {
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

func newGraphState(g *uncertain.Graph, stats *Stats, ctl *core.RunControl) *graphState {
	n, m := g.NumVertices(), g.NumEdges()
	s := &graphState{
		g:        g,
		rowStart: make([]int32, n+1),
		slotEdge: make([]int32, 2*m),
		ends:     make([][2]int32, m),
		prob:     make([]float64, m),
		alive:    make([]bool, m),
		inQueue:  make([]bool, m),
		queue:    make([]int32, m),
		removed:  make([]int32, 0, m),
		stats:    stats,
		ctl:      ctl,
		tick:     abortCheckInterval,
	}
	maxDeg := 0
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		maxDeg = max(maxDeg, d)
		s.rowStart[u+1] = s.rowStart[u] + int32(d)
	}
	s.pairs = make([][2]int32, 0, maxDeg)
	s.qs = make([]float64, 0, maxDeg)
	s.dp = make([]float64, maxDeg)
	// Walking u ascending numbers the edges in (u, v) order. v's lower
	// neighbours head v's ascending row and arrive here in ascending u, so a
	// per-row cursor finds each edge's slot in the other endpoint's row.
	cursor := make([]int32, n)
	copy(cursor, s.rowStart)
	id := int32(0)
	for u := 0; u < n; u++ {
		row, pr := g.Adjacency(u)
		base := s.rowStart[u]
		for i, v := range row {
			if v < int32(u) {
				continue // numbered from v's side
			}
			s.slotEdge[base+int32(i)] = id
			s.slotEdge[cursor[v]] = id
			cursor[v]++
			s.ends[id] = [2]int32{int32(u), v}
			s.prob[id] = pr[i]
			s.alive[id] = true
			id++
		}
	}
	clear(cursor) // spent; buildWedges reuses it as its mark array
	s.buildWedges(cursor)
	return s
}

// degree returns the length of vertex x's row.
func (s *graphState) degree(x int32) int32 { return s.rowStart[x+1] - s.rowStart[x] }

// buildWedges builds the wedge index unless the graph is too dense for it
// (maxWedgesPerEdge), in two passes over the same scan: the first counts each
// edge's wedges into wedgeStart, the second fills the lists, so the index
// is two exact allocations. The scan marks each vertex x's row with the IDs
// of x's edges, then, for every edge {x,y} whose endpoint x ranks higher by
// (degree, ID), walks y's ascending row for marks: each edge is scanned
// once, from its lower-ranked endpoint, and one scan finds its whole list.
// mark (n entries, all zero) is scratch: mark[w] is 1 + the ID of {x,w}
// while x's row is marked. The build polls the run control as it goes and
// leaves the run stopped if the control fires.
func (s *graphState) buildWedges(mark []int32) {
	bound := 0 // Σ (min(deg u, deg v) − 1): the most wedges the index can hold
	for _, e := range s.ends {
		bound += int(min(s.degree(e[0]), s.degree(e[1]))) - 1
	}
	if bound > maxWedgesPerEdge*len(s.ends) || bound > math.MaxInt32 {
		return
	}
	g, rowStart, slotEdge := s.g, s.rowStart, s.slotEdge
	s.wedgeStart = make([]int32, len(s.ends)+1)
	for pass := range 2 {
		work := 0
		for x := range g.NumVertices() {
			rowX, _ := g.Adjacency(x)
			edgeX := slotEdge[rowStart[x]:rowStart[x+1]]
			for i, w := range rowX {
				mark[w] = edgeX[i] + 1
			}
			for i, y := range rowX {
				if s.degree(y) > int32(len(rowX)) || s.degree(y) == int32(len(rowX)) && int(y) > x {
					continue // y ranks higher: {x,y} is found while y's row is marked
				}
				id := edgeX[i]
				rowY, _ := g.Adjacency(int(y))
				edgeY := slotEdge[rowStart[y]:rowStart[y+1]]
				next := s.wedgeStart[id] // the list's first slot once counted
				if pass == 0 {
					next = 0
				}
				for j, w := range rowY {
					if xw := mark[w]; xw != 0 {
						if pass == 1 {
							// The pair is ({u,w}, {v,w}) for the edge's endpoints u < v.
							pair := [2]int32{xw - 1, edgeY[j]}
							if int(y) < x {
								pair[0], pair[1] = pair[1], pair[0]
							}
							s.wedges[next] = pair
						}
						next++
					}
				}
				if pass == 0 {
					s.wedgeStart[id+1] = next
				}
				work += len(rowY)
			}
			for _, w := range rowX {
				mark[w] = 0
			}
			if work >= buildPollInterval {
				work = 0
				if s.ctl.Poll(0) {
					s.stopped = true
					return
				}
			}
		}
		if pass == 0 {
			for id := range len(s.ends) {
				s.wedgeStart[id+1] += s.wedgeStart[id]
			}
			s.wedges = make([][2]int32, s.wedgeStart[len(s.ends)])
		}
	}
}

// aliveWedges lists into the run's pair scratch the wedges of edge id =
// {u,v} whose two edges are both alive, as (ID of {u,w}, ID of {v,w}) in
// ascending w: from the edge's list, or, without an index, by merging the
// two endpoint rows.
func (s *graphState) aliveWedges(id int32) [][2]int32 {
	pairs := s.pairs[:0]
	if s.wedgeStart != nil {
		for _, w := range s.wedges[s.wedgeStart[id]:s.wedgeStart[id+1]] {
			if s.alive[w[0]] && s.alive[w[1]] {
				pairs = append(pairs, w)
			}
		}
		return pairs
	}
	u, v := s.ends[id][0], s.ends[id][1]
	rowU, _ := s.g.Adjacency(int(u))
	rowV, _ := s.g.Adjacency(int(v))
	edgeU := s.slotEdge[s.rowStart[u]:s.rowStart[u+1]]
	edgeV := s.slotEdge[s.rowStart[v]:s.rowStart[v+1]]
	i, j := 0, 0
	for i < len(rowU) && j < len(rowV) {
		switch {
		case rowU[i] < rowV[j]:
			i++
		case rowU[i] > rowV[j]:
			j++
		default:
			if s.alive[edgeU[i]] && s.alive[edgeV[j]] {
				pairs = append(pairs, [2]int32{edgeU[i], edgeV[j]})
			}
			i++
			j++
		}
	}
	return pairs
}

// wedgeProbs lists q_w = p(u,w)·p(v,w) for every alive wedge of edge id =
// {u,v}, in ascending w, into the run's qs scratch.
func (s *graphState) wedgeProbs(id int32) []float64 {
	qs := s.qs[:0]
	for _, w := range s.aliveWedges(id) {
		qs = append(qs, s.prob[w[0]]*s.prob[w[1]])
	}
	return qs
}

// tailProb returns P[X ≥ t] for X a sum of independent Bernoulli(qs[i]).
func tailProb(qs []float64, t int) float64 {
	// The row is only read when t ≤ len(qs): a threshold above the number
	// of Bernoulli terms costs nothing, however large.
	return tailProbInto(make([]float64, max(min(t, len(qs)), 0)), qs, t)
}

// tailProbInto is tailProb with the DP row in caller-owned scratch of at
// least t entries (only read when 0 < t ≤ len(qs)). The DP keeps
// P[X = 0..t−1] and accumulates the overflow mass at ≥ t, costing
// O(len(qs)·t). It is the package's one copy of the DP.
func tailProbInto(dp, qs []float64, t int) float64 {
	if t <= 0 {
		return 1
	}
	if len(qs) < t {
		return 0
	}
	// dp[j] = P[X = j] over the prefix processed so far, for j < t.
	dp = dp[:t]
	dp[0] = 1
	clear(dp[1:])
	atLeast := 0.0
	for _, q := range qs {
		// Mass moving from t−1 to t leaves the tracked range.
		atLeast += dp[t-1] * q
		for j := t - 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-q) + dp[j-1]*q
		}
		dp[0] *= 1 - q
	}
	return atLeast
}

// SupportProb returns P[supp_G(e) ≥ t] for the edge {u,v} of g, with the
// whole graph as the ambient subgraph. It errors if {u,v} is not a possible
// edge or t is negative. One edge needs no peel state: the call merges the
// two endpoints' rows, and its memory is bounded by the smaller degree.
func SupportProb(g *uncertain.Graph, u, v int, t int) (float64, error) {
	if g == nil {
		return 0, fmt.Errorf("utruss: %w", core.ErrNilGraph)
	}
	if t < 0 {
		return 0, fmt.Errorf("utruss: negative support threshold %d: %w", t, core.ErrConfig)
	}
	if u < 0 || u >= g.NumVertices() || v < 0 || v >= g.NumVertices() {
		return 0, fmt.Errorf("utruss: edge {%d,%d} outside [0,%d): %w", u, v, g.NumVertices(), uncertain.ErrVertexRange)
	}
	if !g.HasEdge(u, v) {
		return 0, fmt.Errorf("utruss: {%d,%d} is not a possible edge", u, v)
	}
	rowU, prU := g.Adjacency(u)
	rowV, prV := g.Adjacency(v)
	qs := make([]float64, 0, min(len(rowU), len(rowV)))
	i, j := 0, 0
	for i < len(rowU) && j < len(rowV) {
		switch {
		case rowU[i] < rowV[j]:
			i++
		case rowU[i] > rowV[j]:
			j++
		default:
			qs = append(qs, prU[i]*prV[j])
			i++
			j++
		}
	}
	return tailProb(qs, t), nil
}

// push appends edge id to the work queue.
func (s *graphState) push(id int32) {
	tail := s.head + s.queued
	if tail >= len(s.queue) {
		tail -= len(s.queue)
	}
	s.queue[tail] = id
	s.inQueue[id] = true
	s.queued++
}

// peel removes, to fixpoint, every alive edge whose support probability at
// threshold t falls below eta. The removed edge IDs are left in s.removed,
// in removal order.
func (s *graphState) peel(t int, eta float64) {
	s.removed = s.removed[:0]
	// Seed the work queue with every alive edge in (u, v) order, which is
	// ID order. The order fixes the reproducible stats; the fixpoint itself
	// is order-independent.
	s.head, s.queued = 0, 0
	for id, ok := range s.alive {
		if ok {
			s.push(int32(id))
		}
	}
	for s.queued > 0 {
		if s.stopped {
			return
		}
		id := s.queue[s.head]
		s.head++
		if s.head == len(s.queue) {
			s.head = 0
		}
		s.queued--
		s.inQueue[id] = false
		if !s.alive[id] {
			continue
		}
		if s.countCheck() {
			return
		}
		if tailProbInto(s.dp, s.wedgeProbs(id), t) >= eta {
			continue
		}
		// e fails: remove it and re-check the edges of every triangle it
		// participated in.
		s.alive[id] = false
		s.stats.Removed++
		s.removed = append(s.removed, id)
		s.queueTriangleEdges(id)
	}
}

// queueTriangleEdges queues the alive edges {u,w} and {v,w} over the alive
// wedges of edge id = {u,v}, in ascending w, {u,w} first — exactly the edges
// whose support distribution changes when {u,v} is removed — skipping those
// already queued.
func (s *graphState) queueTriangleEdges(id int32) {
	for _, w := range s.aliveWedges(id) {
		if !s.inQueue[w[0]] {
			s.push(w[0])
		}
		if !s.inQueue[w[1]] {
			s.push(w[1])
		}
	}
}

// Validate checks the (graph, eta, config) triple every decomposition entry
// point accepts, returning the first violation wrapped around the matching
// sentinel (core.ErrNilGraph, core.ErrEtaRange, core.ErrConfig). The k of a
// specific truss level is validated by TrussContext (core.ErrKRange).
func Validate(g *uncertain.Graph, eta float64, cfg Config) error {
	return validateTrussArgs(g, 2, eta, cfg)
}

func validateTrussArgs(g *uncertain.Graph, k int, eta float64, cfg Config) error {
	if g == nil {
		return fmt.Errorf("utruss: %w", core.ErrNilGraph)
	}
	if k < 2 {
		return fmt.Errorf("utruss: k = %d below 2: %w", k, core.ErrKRange)
	}
	if !(eta > 0 && eta <= 1) { // also rejects NaN
		return fmt.Errorf("utruss: eta %v outside (0,1]: %w", eta, core.ErrEtaRange)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("utruss: negative Budget %d: %w", cfg.Budget, core.ErrConfig)
	}
	if cfg.Stall < 0 {
		return fmt.Errorf("utruss: negative Stall %v: %w", cfg.Stall, core.ErrConfig)
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
	return fmt.Errorf("utruss: truss computation aborted after %d support checks: %w", stats.Checks, err)
}

// Truss returns the (k,η)-truss of g: the unique maximal subgraph whose
// every edge e satisfies P[supp(e) ≥ k−2] ≥ η within the subgraph. The
// result preserves g's vertex set; only edges are removed.
func Truss(g *uncertain.Graph, k int, eta float64) (*uncertain.Graph, error) {
	tr, _, err := TrussContext(context.Background(), g, k, eta, Config{})
	return tr, err
}

// TrussContext is Truss under ctx and explicit configuration: the peeling
// loop polls the shared run-control block every abortCheckInterval support
// checks, so a canceled context, an expired deadline, or an exhausted
// Config.Budget aborts the computation with an error wrapping the cause and
// Stats.Status recording the terminal state.
func TrussContext(ctx context.Context, g *uncertain.Graph, k int, eta float64, cfg Config) (*uncertain.Graph, Stats, error) {
	var stats Stats
	if err := validateTrussArgs(g, k, eta, cfg); err != nil {
		return nil, stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		return nil, stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	s := newGraphState(g, &stats, ctl)
	s.peel(k-2, eta)
	if err := finish(ctl, &stats, false); err != nil {
		return nil, stats, err
	}
	tr, err := s.export()
	return tr, stats, err
}

// export materializes the alive edges as an uncertain graph, assembling
// its CSR directly from the alive slots of g's rows (which stay ascending).
func (s *graphState) export() (*uncertain.Graph, error) {
	n, slots := s.g.NumVertices(), 2*(s.g.NumEdges()-int(s.stats.Removed)) // two per alive edge
	offsets := make([]int32, n+1)
	nbrs := make([]int32, 0, slots)
	probs := make([]float64, 0, slots)
	for u := 0; u < n; u++ {
		row, pr := s.g.Adjacency(u)
		for i, id := range s.slotEdge[s.rowStart[u]:s.rowStart[u+1]] {
			if s.alive[id] {
				nbrs = append(nbrs, row[i])
				probs = append(probs, pr[i])
			}
		}
		offsets[u+1] = int32(len(nbrs))
	}
	tr, err := uncertain.FromSortedAdjacency(n, offsets, nbrs, probs)
	if err != nil {
		return nil, fmt.Errorf("utruss: rebuilding truss: %w", err)
	}
	return tr, nil
}

// RunContext performs the η-truss decomposition under ctx, streaming every
// edge with its final truss number to visit as the peeling discovers it:
// edges removed while enforcing the (k,η)-truss condition have truss number
// k−1, which is final the moment they are peeled, so the visitor fires in
// peel order (level by level) without waiting for the full decomposition.
// visit may be nil to only count. A visitor returning false stops the
// peeling early (StatusStopped, nil error); a context or budget abort
// returns an error wrapping the cause.
func RunContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config, visit Visitor) (Stats, error) {
	var stats Stats
	if err := validateTrussArgs(g, 2, eta, cfg); err != nil {
		return stats, err
	}
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	s := newGraphState(g, &stats, ctl)
	// Peel level by level; each removed edge's truss number is final.
	alive := g.NumEdges()
	visitorStopped := false
	for k := 3; alive > 0 && !s.stopped && !visitorStopped; k++ {
		s.peel(k-2, eta)
		alive -= len(s.removed)
		for _, id := range s.removed {
			// A level's removals are emitted as a batch, so poll the
			// control (at zero charge) between yields too — a consumer
			// canceling mid-stream must not have to wait for the next
			// level's support checks to be noticed.
			if s.stopped || ctl.Poll(0) {
				s.stopped = true
				break
			}
			e := s.ends[id]
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

// Decompose assigns every edge of g its η-truss number: the largest k such
// that the (k,η)-truss contains the edge. Edges are returned sorted by
// (U, V). Every edge has truss number ≥ 2, the trivial level.
func Decompose(g *uncertain.Graph, eta float64) ([]EdgeTruss, error) {
	dec, _, err := DecomposeContext(context.Background(), g, eta, Config{})
	return dec, err
}

// DecomposeContext is Decompose under ctx and explicit configuration,
// additionally returning the run's Stats.
func DecomposeContext(ctx context.Context, g *uncertain.Graph, eta float64, cfg Config) ([]EdgeTruss, Stats, error) {
	var out []EdgeTruss
	stats, err := RunContext(ctx, g, eta, cfg, func(e EdgeTruss) bool {
		out = append(out, e)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	slices.SortFunc(out, func(a, b EdgeTruss) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return out, stats, nil
}

// MaxTruss returns the largest k for which the (k,η)-truss of g is
// non-empty, or 0 for an edgeless graph.
func MaxTruss(g *uncertain.Graph, eta float64) (int, error) {
	_, stats, err := DecomposeContext(context.Background(), g, eta, Config{})
	if err != nil {
		return 0, err
	}
	return stats.MaxTruss, nil
}
