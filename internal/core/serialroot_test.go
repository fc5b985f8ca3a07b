package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// runSerialMaterialized is the serial root as it was before runSerial became
// a loop over branch: root I holds every vertex with multiplier 1, root X is
// an n-slot arena set that the root loop's witness pushes fill, and the root
// is an ordinary node of rec (e.recurse, or a reference recursion). It is
// kept here as the reference the new root must reproduce.
func (e *enumerator) runSerialMaterialized(rec func(C []int32, q float64, I, X entrySet)) {
	n := e.g.NumVertices()
	m := e.arena.mark()
	rootI := e.arena.alloc(n)
	for v := 0; v < n; v++ {
		rootI = rootI.push(int32(v), 1)
	}
	rootX := e.arena.alloc(n)
	rec(e.cbuf[:0], 1, rootI, rootX)
	e.arena.release(m)
}

// newReference prepares g exactly as EnumerateContext does under cfg (α-prune,
// LARGE-MULE prefilter, ordering, bit rows) and returns a serial enumerator
// over the result that checks invariants and reports to visit and stats.
// Its arena is private; release returns the pooled bit rows.
func newReference(t *testing.T, g *uncertain.Graph, alpha float64, cfg Config, visit Visitor, stats *Stats) (e *enumerator, release func()) {
	t.Helper()
	work := g.PruneAlpha(alpha)
	var err error
	if cfg.MinSize >= 2 {
		if work, err = sharedNeighborhoodFilter(work, cfg.MinSize); err != nil {
			t.Fatal(err)
		}
	}
	newToOld, err := buildOrder(work, cfg.Ordering, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	identity := isIdentityOrder(newToOld)
	if !identity {
		if work, _, err = work.Relabel(newToOld); err != nil {
			t.Fatal(err)
		}
	}
	bits := buildBitAdjacency(work, cfg.Intersect)
	e = &enumerator{
		g: work, alpha: alpha, minSize: cfg.MinSize, visit: visit,
		newToOld: newToOld, identity: identity, checkInv: true, bits: bits,
		stats: stats, ctl: NewRunControl(context.Background(), 0), tick: abortCheckInterval,
		arena: &entryArena{}, emitBuf: make([]int, 0, 64), cbuf: make([]int32, 0, 128),
	}
	return e, bits.release
}

type emission struct {
	clique []int
	prob   float64
}

// recordTo returns a visitor that appends every emission to out, in order.
func recordTo(out *[]emission) Visitor {
	return func(c []int, q float64) bool {
		*out = append(*out, emission{append([]int(nil), c...), q})
		return true
	}
}

func TestSerialRootMatchesMaterializedRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	densities := []float64{0.15, 0.3, 0.5, 0.8}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDyadic(n, densities[trial%len(densities)], rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		for _, cfg := range []Config{
			{},
			{MinSize: 3},
			{Ordering: OrderDegeneracy},
			{Intersect: IntersectBitset},
		} {
			cfg.CheckInvariants = true
			var got []emission
			stats, err := EnumerateWith(g, alpha, recordTo(&got), cfg)
			if err != nil {
				t.Fatal(err)
			}

			var want []emission
			ref := Stats{PrunedEdges: stats.PrunedEdges, FilterRemoved: stats.FilterRemoved, Status: stats.Status}
			e, release := newReference(t, g, alpha, cfg, recordTo(&want), &ref)
			e.runSerialMaterialized(e.recurse)
			release()

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d, α=%v, %+v): emission streams differ\nnew root = %v\nreference = %v",
					trial, n, alpha, cfg, got, want)
			}
			// Only the root's own intersections (bit-row probes among them)
			// disappear with the materialized root sets. A top-level branch
			// still materializes its witness set, whereas a leaf child of the
			// materialized root takes the early-exit witness test, so
			// WitnessOps differ too.
			stats.BitsetOps, ref.BitsetOps = 0, 0
			stats.WitnessOps, ref.WitnessOps = 0, 0
			if stats != ref {
				t.Fatalf("trial %d (n=%d, α=%v, %+v): stats differ\nnew root  = %+v\nreference = %+v",
					trial, n, alpha, cfg, stats, ref)
			}
		}
	}
}
