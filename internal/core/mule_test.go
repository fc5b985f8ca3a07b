package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mule/internal/baseline"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// dyadicAlphas are threshold values that are powers of two; combined with
// DyadicProb edge probabilities every clique-probability comparison in these
// tests is exact in float64.
var dyadicAlphas = []float64{0.5, 0.25, 0.125, 0.0625, 0.03125}

// randomDyadic builds a G(n, density) uncertain graph with power-of-two
// probabilities.
func randomDyadic(n int, density float64, rng *rand.Rand) *uncertain.Graph {
	b := uncertain.NewBuilder(n)
	pf := gen.DyadicProb(3)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				_ = b.AddEdge(u, v, pf(rng, u, v))
			}
		}
	}
	return b.Build()
}

func mustCollect(t *testing.T, g *uncertain.Graph, alpha float64, cfg Config) [][]int {
	t.Helper()
	out, _, err := CollectWith(g, alpha, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// --- Soundness and completeness against the brute-force oracle ---

func TestMULEMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	densities := []float64{0.2, 0.4, 0.6, 0.9}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(9)
		g := randomDyadic(n, densities[trial%len(densities)], rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		want := baseline.BruteForce(g, alpha)
		got := mustCollect(t, g, alpha, Config{CheckInvariants: true})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, α=%v):\nMULE  = %v\nbrute = %v\ngraph = %v",
				trial, n, alpha, got, want, g.Edges())
		}
	}
}

func TestMULEMatchesDFSNOIP(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(20)
		g := randomDyadic(n, 0.4, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		want := baseline.CollectNOIP(g, alpha)
		got := mustCollect(t, g, alpha, Config{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, α=%v): MULE and DFS-NOIP disagree\nMULE = %v\nNOIP = %v",
				trial, n, alpha, got, want)
		}
	}
}

// At α = 1 only p(e)=1 edges matter and α-maximal cliques are exactly the
// deterministic maximal cliques of that subgraph. The oracle sees only the
// certain edges, so every product it compares is a product of 1.0s.
func TestMULEAlphaOneMatchesCertainSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		g := randomDyadic(n, 0.6, rng)
		cb := uncertain.NewBuilder(n)
		for _, e := range g.Edges() {
			if e.P == 1 {
				if err := cb.AddEdge(e.U, e.V, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := baseline.BruteForce(cb.Build(), 1)
		got := mustCollect(t, g, 1.0, Config{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("α=1 mismatch: MULE %v vs certain subgraph %v", got, want)
		}
	}
}

// --- Known answers on hand-built graphs ---

func TestMULEHandComputed(t *testing.T) {
	// Triangle {0,1,2} all p=0.5 plus pendant {2,3} with p=0.25.
	g, err := uncertain.FromEdges(4, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alpha float64
		want  [][]int
	}{
		// clq(triangle) = 0.125.
		{0.125, [][]int{{0, 1, 2}, {2, 3}}},
		// Triangle fails; its edges are maximal; {2,3} still qualifies.
		{0.25, [][]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}}},
		// Pendant edge fails too; vertex 3 becomes an isolated singleton.
		{0.3, [][]int{{0, 1}, {0, 2}, {1, 2}, {3}}},
		// Everything fails: four singletons.
		{0.6, [][]int{{0}, {1}, {2}, {3}}},
	}
	for _, c := range cases {
		got := mustCollect(t, g, c.alpha, Config{CheckInvariants: true})
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("α=%v: got %v, want %v", c.alpha, got, c.want)
		}
	}
}

func TestMULESingletonAndEmptyGraphs(t *testing.T) {
	// No vertices: nothing is emitted.
	empty := uncertain.NewBuilder(0).Build()
	if got := mustCollect(t, empty, 0.5, Config{}); len(got) != 0 {
		t.Fatalf("empty graph emitted %v", got)
	}
	// Isolated vertices: every singleton is α-maximal.
	iso := uncertain.NewBuilder(3).Build()
	want := [][]int{{0}, {1}, {2}}
	if got := mustCollect(t, iso, 0.5, Config{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("isolated vertices: got %v, want %v", got, want)
	}
}

func TestMULEProbabilitiesReported(t *testing.T) {
	g, _ := uncertain.FromEdges(3, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.5}, {U: 1, V: 2, P: 0.5},
	})
	var probs []float64
	_, err := Enumerate(g, 0.125, func(c []int, p float64) bool {
		probs = append(probs, p)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 1 || probs[0] != 0.125 {
		t.Fatalf("probs = %v, want [0.125]", probs)
	}
}

func TestMULEVisitorEarlyStop(t *testing.T) {
	g := randomDyadic(15, 0.5, rand.New(rand.NewSource(7)))
	count := 0
	stats, err := Enumerate(g, 0.25, func([]int, float64) bool {
		count++
		return count < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("visited %d cliques after early stop, want 4", count)
	}
	if stats.Emitted != 4 {
		t.Fatalf("stats.Emitted = %d, want 4", stats.Emitted)
	}
}

// --- Configuration validation ---

func TestEnumerateValidation(t *testing.T) {
	g := uncertain.NewBuilder(2).Build()
	if _, err := Enumerate(nil, 0.5, nil); err == nil {
		t.Error("nil graph should fail")
	}
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := Enumerate(g, alpha, nil); err == nil {
			t.Errorf("alpha=%v should fail", alpha)
		}
	}
	if _, err := EnumerateWith(g, 0.5, nil, Config{MinSize: -1}); err == nil {
		t.Error("negative MinSize should fail")
	}
	if _, err := EnumerateWith(g, 0.5, nil, Config{Workers: -2}); err == nil {
		t.Error("negative Workers should fail")
	}
	if _, err := EnumerateWith(g, 0.5, nil, Config{Ordering: Ordering(99)}); err == nil {
		t.Error("unknown ordering should fail")
	}
}

// --- Observation 3: α-pruning does not change the output ---

func TestSkipPruneEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		g := randomDyadic(4+rng.Intn(10), 0.6, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		pruned := mustCollect(t, g, alpha, Config{})
		unpruned := mustCollect(t, g, alpha, Config{SkipPrune: true, CheckInvariants: true})
		if !reflect.DeepEqual(pruned, unpruned) {
			t.Fatalf("Observation 3 violated at α=%v", alpha)
		}
	}
}

// --- Orderings: every strategy yields the same clique set ---

func TestOrderingsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 20; trial++ {
		g := randomDyadic(6+rng.Intn(14), 0.5, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		want := mustCollect(t, g, alpha, Config{Ordering: OrderNatural})
		for _, ord := range []Ordering{OrderDegree, OrderDegeneracy, OrderRandom} {
			got := mustCollect(t, g, alpha, Config{Ordering: ord, Seed: int64(trial), CheckInvariants: true})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ordering %v changed output (trial %d, α=%v)", ord, trial, alpha)
			}
		}
	}
}

func TestOrderingString(t *testing.T) {
	for ord, want := range map[Ordering]string{
		OrderNatural: "natural", OrderDegree: "degree",
		OrderDegeneracy: "degeneracy", OrderRandom: "random", Ordering(42): "Ordering(42)",
	} {
		if got := ord.String(); got != want {
			t.Errorf("Ordering.String() = %q, want %q", got, want)
		}
	}
}

// --- Parallel driver equivalence ---

func TestParallelEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 15; trial++ {
		g := randomDyadic(10+rng.Intn(20), 0.4, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		want := mustCollect(t, g, alpha, Config{})
		for _, workers := range []int{2, 4, 8} {
			got := mustCollect(t, g, alpha, Config{Workers: workers})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d changed output (trial %d)", workers, trial)
			}
		}
	}
}

func TestParallelStats(t *testing.T) {
	g := randomDyadic(30, 0.4, rand.New(rand.NewSource(8)))
	serial, err := Enumerate(g, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	var par Stats
	par, err = EnumerateWith(g, 0.25, nil, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Emitted != serial.Emitted {
		t.Fatalf("parallel emitted %d, serial %d", par.Emitted, serial.Emitted)
	}
	if par.Calls != serial.Calls {
		t.Fatalf("parallel calls %d, serial %d (tree shape must match)", par.Calls, serial.Calls)
	}
}

func TestParallelEarlyStop(t *testing.T) {
	g := randomDyadic(40, 0.4, rand.New(rand.NewSource(9)))
	count := 0
	_, err := EnumerateWith(g, 0.25, func([]int, float64) bool {
		count++
		return count < 5
	}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if count < 5 {
		t.Fatalf("early stop fired after %d cliques, want ≥ 5", count)
	}
}

// --- Stats sanity ---

func TestStatsShape(t *testing.T) {
	g, _ := uncertain.FromEdges(4, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.25},
	})
	stats, err := Enumerate(g, 0.125, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emitted != 2 {
		t.Fatalf("Emitted = %d, want 2", stats.Emitted)
	}
	if stats.MaxCliqueSize != 3 || stats.MaxDepth != 3 {
		t.Fatalf("MaxCliqueSize/MaxDepth = %d/%d, want 3/3", stats.MaxCliqueSize, stats.MaxDepth)
	}
	if stats.Calls < 3 {
		t.Fatalf("Calls = %d, implausibly few", stats.Calls)
	}
	if stats.PrunedEdges != 0 {
		t.Fatalf("PrunedEdges = %d, want 0 at α=0.125", stats.PrunedEdges)
	}
	// At α=0.3 the pendant 0.25 edge must be pruned away.
	stats, _ = Enumerate(g, 0.3, nil)
	if stats.PrunedEdges != 1 {
		t.Fatalf("PrunedEdges = %d, want 1 at α=0.3", stats.PrunedEdges)
	}
}

func TestCount(t *testing.T) {
	g := randomDyadic(20, 0.4, rand.New(rand.NewSource(10)))
	cliques := mustCollect(t, g, 0.25, Config{})
	n, err := Count(g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(cliques) {
		t.Fatalf("Count = %d, Collect found %d", n, len(cliques))
	}
}

// --- Every emitted clique is genuinely α-maximal (soundness on larger
// graphs where brute force is infeasible) ---

func TestSoundnessOnLargerGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	g := randomDyadic(60, 0.25, rng)
	for _, alpha := range []float64{0.5, 0.125, 0.03125} {
		checked := 0
		_, err := Enumerate(g, alpha, func(c []int, p float64) bool {
			if !g.IsAlphaMaximalClique(c, alpha) {
				t.Fatalf("emitted non-maximal %v at α=%v", c, alpha)
			}
			if got := g.CliqueProb(c); got != p {
				t.Fatalf("reported prob %v, true %v", p, got)
			}
			checked++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatalf("no cliques emitted at α=%v", alpha)
		}
	}
}

// --- Uniform (non-dyadic) probabilities: MULE vs NOIP still agree because
// both use the same comparison discipline on identical products ---

func TestUniformProbabilitiesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7)
		b := uncertain.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.6 {
					_ = b.AddEdge(u, v, 1-rng.Float64())
				}
			}
		}
		g := b.Build()
		// α chosen away from any product boundary with overwhelming
		// probability (continuous values).
		alpha := 0.05 + 0.4*rng.Float64()
		want := baseline.BruteForce(g, alpha)
		got := mustCollect(t, g, alpha, Config{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("uniform-prob trial %d: mismatch", trial)
		}
	}
}
