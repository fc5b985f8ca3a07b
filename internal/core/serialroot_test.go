package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// runSerialMaterialized is the serial root as it was before runSerial became
// a loop over branch: root I holds every vertex with multiplier 1, root X is
// an n-slot arena set that the root loop's witness pushes fill, and the root
// is an ordinary recurse node. It is kept here as the reference the new root
// must reproduce.
func (e *enumerator) runSerialMaterialized() {
	n := e.g.NumVertices()
	m := e.arena.mark()
	rootI := e.arena.alloc(n)
	for v := 0; v < n; v++ {
		rootI = rootI.push(int32(v), 1)
	}
	rootX := e.arena.alloc(n)
	e.recurse(e.cbuf[:0], 1, rootI, rootX)
	e.arena.release(m)
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

			work := g.PruneAlpha(alpha)
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
			var want []emission
			ref := Stats{PrunedEdges: stats.PrunedEdges, FilterRemoved: stats.FilterRemoved, Status: stats.Status}
			e := &enumerator{
				g: work, alpha: alpha, minSize: cfg.MinSize, visit: recordTo(&want),
				newToOld: newToOld, identity: identity, checkInv: true,
				intersectMode: cfg.Intersect, bits: bits, mask: bits.checkoutMask(),
				stats: &ref, ctl: NewRunControl(context.Background(), 0), tick: abortCheckInterval,
				arena: &entryArena{}, emitBuf: make([]int, 0, 64), cbuf: make([]int32, 0, 128),
			}
			e.runSerialMaterialized()
			e.releasePooled()
			bits.release()

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d, α=%v, %+v): emission streams differ\nnew root = %v\nreference = %v",
					trial, n, alpha, cfg, got, want)
			}
			// Only the root's own intersections (bitset-routed ones among
			// them) disappear with the materialized root sets.
			stats.BitsetOps, ref.BitsetOps = 0, 0
			if stats != ref {
				t.Fatalf("trial %d (n=%d, α=%v, %+v): stats differ\nnew root  = %+v\nreference = %+v",
					trial, n, alpha, cfg, stats, ref)
			}
		}
	}
}
