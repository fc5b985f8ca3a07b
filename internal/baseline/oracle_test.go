package baseline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// TestTailAtLeastMatchesEnumeration checks the divide-and-conquer
// Poisson-binomial tail against exhaustive 2^m world enumeration, the one
// computation whose correctness is self-evident.
func TestTailAtLeastMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(10)
		probs := make([]float64, m)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		for k := 0; k <= m+1; k++ {
			want := 0.0
			for mask := 0; mask < 1<<m; mask++ {
				p, count := 1.0, 0
				for i := 0; i < m; i++ {
					if mask&(1<<i) != 0 {
						p *= probs[i]
						count++
					} else {
						p *= 1 - probs[i]
					}
				}
				if count >= k {
					want += p
				}
			}
			got := TailAtLeast(probs, k)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d m=%d k=%d: TailAtLeast = %g, enumeration = %g", trial, m, k, got, want)
			}
		}
	}
}

// TestReliabilityHandComputed pins the Floyd–Warshall closure on a path
// with a weaker parallel shortcut.
func TestReliabilityHandComputed(t *testing.T) {
	g, err := uncertain.FromEdges(5, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.5},
		{U: 0, V: 3, P: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := Reliability(g)
	cases := []struct {
		u, v int
		want float64
	}{
		{0, 0, 1}, {0, 1, 0.5}, {0, 2, 0.25},
		{0, 3, 0.2},          // the direct 0.2 edge beats the 0.125 path
		{1, 3, 0.25},         // via 2, not via 0 (0.5·0.2 = 0.1)
		{0, 4, 0}, {4, 4, 1}, // vertex 4 is isolated
	}
	for _, c := range cases {
		if got := r[c.u][c.v]; math.Abs(got-c.want) > 1e-15 {
			t.Fatalf("R[%d][%d] = %g, want %g", c.u, c.v, got, c.want)
		}
		if got := r[c.v][c.u]; math.Abs(got-c.want) > 1e-15 {
			t.Fatalf("R[%d][%d] = %g, want %g (symmetry)", c.v, c.u, got, c.want)
		}
	}
}

// TestDensestExactHandComputed: a 0.9-triangle with a weak pendant edge has
// the bare triangle as its densest subgraph (density 2.7/3 = 0.9).
func TestDensestExactHandComputed(t *testing.T) {
	g, err := uncertain.FromEdges(4, []uncertain.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9},
		{U: 2, V: 3, P: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	set, density := DensestExact(g)
	if !reflect.DeepEqual(set, []int{0, 1, 2}) {
		t.Fatalf("set = %v, want [0 1 2]", set)
	}
	if math.Abs(density-0.9) > 1e-15 {
		t.Fatalf("density = %g, want 0.9", density)
	}
	if d := ExpectedDensity(g, []int{0, 1, 2, 3}); math.Abs(d-2.8/4) > 1e-15 {
		t.Fatalf("full-graph density = %g, want 0.7", d)
	}
}
