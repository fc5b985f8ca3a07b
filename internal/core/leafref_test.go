package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// recurseMaterialized is Enum-Uncertain-MC with the leaf handling the kernel
// had before the early-exit witness test: every child, leaf or not, gets a
// materialized X' from generateX and runs as an ordinary node, emitted iff
// I' and X' are both empty. verifyInvariants checks every node, leaves
// included, on the materialized sets. It is the reference the early-exit
// leaves must reproduce.
func (e *enumerator) recurseMaterialized(C []int32, q float64, I, X entrySet) {
	if e.stopped || e.countNode() {
		return
	}
	if len(C) > e.stats.MaxDepth {
		e.stats.MaxDepth = len(C)
	}
	if e.checkInv {
		e.verifyInvariants(C, q, I, X)
	}
	if I.length() == 0 && X.length() == 0 {
		e.emit(C, q)
		return
	}
	for idx := 0; idx < I.length(); idx++ {
		if e.stopped {
			return
		}
		u, r := I.v[idx], I.r[idx]
		q2 := q * r
		m := e.arena.mark()
		tail := entrySet{I.v[idx+1:], I.r[idx+1:]}
		var I2, X2 entrySet
		e.generateI(&I2, &tail, u, q2)
		if e.minSize >= 2 && len(C)+1+I2.length() < e.minSize {
			e.stats.SizePruned++
			e.arena.release(m)
			continue
		}
		e.generateX(&X2, &X, u, q2, I2.length())
		e.recurseMaterialized(append(C, u), q2, I2, X2)
		e.arena.release(m)
		X = X.push(u, r)
	}
}

// sortEmissions orders emissions canonically (each clique is already sorted
// ascending), so the emission sets of parallel runs can be compared.
func sortEmissions(es []emission) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i].clique, es[j].clique
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// TestEarlyExitLeavesMatchMaterializedLeaves runs the 50-random-graph suite
// with CheckInvariants on under every engine × {plain, LARGE} × intersect
// mode, against the serial reference recursion that materializes every
// leaf's X'. The serial engine must reproduce the reference's emission
// stream, the parallel engine its emission set (probabilities included),
// and every engine its Stats — except WitnessOps, which early-exit leaves
// no longer produce, BitsetOps, which counts their probes, and the
// scheduling counters Steals and Splits.
func TestEarlyExitLeavesMatchMaterializedLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	densities := []float64{0.15, 0.3, 0.5, 0.8}
	engines := []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{}},
		{"worksteal", Config{Workers: 4, StealGranularity: 1}},
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDyadic(n, densities[trial%len(densities)], rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		for _, minSize := range []int{0, 3} {
			for _, mode := range []IntersectMode{IntersectAdaptive, IntersectSorted, IntersectBitset} {
				base := Config{MinSize: minSize, Intersect: mode, CheckInvariants: true}
				var want []emission
				var ref Stats
				e, release := newReference(t, g, alpha, base, recordTo(&want), &ref)
				e.runSerialMaterialized(e.recurseMaterialized)
				release()
				sortedWant := append([]emission(nil), want...)
				sortEmissions(sortedWant)

				for _, eng := range engines {
					cfg := eng.cfg
					cfg.MinSize, cfg.Intersect, cfg.CheckInvariants = minSize, mode, true
					var got []emission
					stats, err := EnumerateWith(g, alpha, recordTo(&got), cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := eng.name + " " + mode.String()
					if cfg.Workers > 1 {
						sortEmissions(got)
						if len(got) != len(sortedWant) || (len(got) > 0 && !reflect.DeepEqual(got, sortedWant)) {
							t.Fatalf("trial %d (n=%d, α=%v, t=%d, %s): emission sets differ\ngot  %v\nwant %v",
								trial, n, alpha, minSize, label, got, sortedWant)
						}
					} else if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("trial %d (n=%d, α=%v, t=%d, %s): emission streams differ\ngot  %v\nwant %v",
							trial, n, alpha, minSize, label, got, want)
					}
					wantStats := ref
					wantStats.Status, wantStats.PrunedEdges, wantStats.FilterRemoved =
						stats.Status, stats.PrunedEdges, stats.FilterRemoved
					wantStats.WitnessOps, wantStats.BitsetOps = stats.WitnessOps, stats.BitsetOps
					wantStats.Steals, wantStats.Splits = stats.Steals, stats.Splits
					if stats != wantStats {
						t.Fatalf("trial %d (n=%d, α=%v, t=%d, %s): stats differ\ngot  %+v\nwant %+v",
							trial, n, alpha, minSize, label, stats, wantStats)
					}
				}
			}
		}
	}
}
