package ubiclique

import (
	"context"

	"github.com/uncertain-graphs/mule/internal/core"
)

// This file keeps the allocating search that the per-depth buffers
// replaced, as the reference of the differential tests: every search node
// makes a fresh candidate set and a fresh witness set, C grows from nil,
// and the root's witness set grows by append.

// refEnumerateContext is EnumerateContext driven by refRecurse.
func refEnumerateContext(ctx context.Context, g *Bipartite, alpha float64, visit Visitor, cfg Config) (Stats, error) {
	if err := Validate(g, alpha, cfg); err != nil {
		return Stats{}, err
	}
	minL, minR := max(cfg.MinLeft, 1), max(cfg.MinRight, 1)
	var stats Stats
	ctl := core.NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) {
		return stats, finish(ctl, &stats, false)
	}
	defer ctl.ArmStall(cfg.Stall)()
	work := g.PruneAlpha(alpha)
	stats.PrunedEdges = g.NumEdges() - work.NumEdges()
	e := &enumerator{
		g:        work.g,
		nL:       int32(work.nL),
		alpha:    alpha,
		minL:     minL,
		minR:     minR,
		visit:    visit,
		checkInv: cfg.CheckInvariants,
		stats:    &stats,
		ctl:      ctl,
		tick:     abortCheckInterval,
		leftBuf:  make([]int, 0, 16),
		rightBuf: make([]int, 0, 16),
	}
	n := e.g.NumVertices()
	rootI := make([]entry, n)
	for v := 0; v < n; v++ {
		rootI[v] = entry{int32(v), 1}
	}
	e.refRecurse(nil, 1, rootI, nil, 0, 0)
	return stats, finish(ctl, &stats, e.userStopped)
}

func (e *enumerator) refRecurse(C []int32, q float64, I, X []entry, cL, cR int) {
	if e.stopped || e.countNode() {
		return
	}
	if e.checkInv {
		e.verifyInvariants(C, q, I, X)
	}
	li := countLeft(I, e.nL)
	if cL+li < e.minL || cR+(len(I)-li) < e.minR {
		e.stats.Cut++
		return
	}
	if len(I) == 0 && len(X) == 0 {
		e.emit(C, q, cL, cR)
		return
	}
	for idx := 0; idx < len(I); idx++ {
		if e.stopped {
			return
		}
		u, r := I[idx].v, I[idx].r
		q2 := q * r
		C2 := append(C, u)
		cL2, cR2 := cL, cR
		if u < e.nL {
			cL2++
		} else {
			cR2++
		}
		I2 := e.refGenerateI(I[idx+1:], u, q2)
		X2 := e.refGenerateX(X, u, q2)
		e.refRecurse(C2, q2, I2, X2, cL2, cR2)
		X = append(X, entry{u, r})
	}
}

func (e *enumerator) refGenerateI(tail []entry, u int32, q2 float64) []entry {
	row, probs := e.g.Adjacency(int(u))
	out := make([]entry, 0, len(tail))
	j := 0
	for i := 0; i < len(tail); i++ {
		w := tail[i]
		if sameSide(w.v, u, e.nL) {
			if q2*w.r >= e.alpha {
				out = append(out, w)
			}
			continue
		}
		for j < len(row) && row[j] < w.v {
			j++
		}
		if j < len(row) && row[j] == w.v {
			r2 := w.r * probs[j]
			if q2*r2 >= e.alpha {
				out = append(out, entry{w.v, r2})
			}
		}
	}
	e.stats.CandidateOps += int64(len(out))
	return out
}

func (e *enumerator) refGenerateX(X []entry, u int32, q2 float64) []entry {
	row, probs := e.g.Adjacency(int(u))
	out := make([]entry, 0, len(X))
	j := 0
	for i := 0; i < len(X); i++ {
		x := X[i]
		if sameSide(x.v, u, e.nL) {
			if q2*x.r >= e.alpha {
				out = append(out, x)
			}
			continue
		}
		for j < len(row) && row[j] < x.v {
			j++
		}
		if j < len(row) && row[j] == x.v {
			s2 := x.r * probs[j]
			if q2*s2 >= e.alpha {
				out = append(out, entry{x.v, s2})
			}
		}
	}
	e.stats.WitnessOps += int64(len(out))
	return out
}
