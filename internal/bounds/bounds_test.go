package bounds

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

func TestBinomialKnownValues(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 5, 252}, {14, 7, 3432},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("C(%d,%d) = %v, want %d", c.n, c.k, got, c.want)
		}
	}
	for _, c := range [][2]int{{5, -1}, {5, 6}, {-1, 0}} {
		if got := Binomial(c[0], c[1]); got.Sign() != 0 {
			t.Errorf("C(%d,%d) = %v, want 0", c[0], c[1], got)
		}
	}
}

func TestBinomialLargeExact(t *testing.T) {
	// C(100, 50) is known exactly; spot-check big.Int plumbing.
	want, ok := new(big.Int).SetString("100891344545564193334812497256", 10)
	if !ok {
		t.Fatal("bad literal")
	}
	if got := Binomial(100, 50); got.Cmp(want) != 0 {
		t.Fatalf("C(100,50) = %v, want %v", got, want)
	}
}

func TestMaxAlphaMaximalCliquesValues(t *testing.T) {
	cases := map[int]int64{2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 9: 126, 10: 252}
	for n, want := range cases {
		if got := MaxAlphaMaximalCliques(n); got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("f(%d,α) = %v, want %d", n, got, want)
		}
	}
}

func TestUncertainBoundExceedsMoonMoser(t *testing.T) {
	// The paper's headline observation: for n ≥ 5 the uncertain bound
	// strictly exceeds the deterministic Moon–Moser bound.
	for n := 5; n <= 60; n++ {
		if MaxAlphaMaximalCliques(n).Cmp(MoonMoserBound(n)) <= 0 {
			t.Errorf("n=%d: C(n,n/2) not above Moon–Moser", n)
		}
	}
}

// The Moon–Moser graph realizes the bound: the complete multipartite graph
// on parts of 3, with the remainder as one part of 2 or two parts of 2, has
// one maximal clique per choice of a vertex from every part.
func TestMoonMoserBoundRealized(t *testing.T) {
	for n := 1; n <= 20; n++ {
		var parts []int
		for rest := n; rest > 0; {
			switch rest {
			case 1, 2:
				parts = append(parts, rest)
				rest = 0
			case 4:
				parts = append(parts, 2, 2)
				rest = 0
			default:
				parts = append(parts, 3)
				rest -= 3
			}
		}
		part := make([]int, 0, n)
		for i, size := range parts {
			for j := 0; j < size; j++ {
				part = append(part, i)
			}
		}
		b := uncertain.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if part[u] != part[v] {
					if err := b.AddEdge(u, v, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var count int64
		if _, err := core.Enumerate(b.Build(), 1, func([]int, float64) bool {
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got := MoonMoserBound(n); got.Cmp(big.NewInt(count)) != 0 {
			t.Errorf("MoonMoserBound(%d) = %v, but the Moon–Moser graph (parts %v) has %d maximal cliques",
				n, got, parts, count)
		}
	}
	if MoonMoserBound(0).Sign() != 0 {
		t.Error("MoonMoserBound(0) should be 0")
	}
}

func TestCentralBinomialEstimateConverges(t *testing.T) {
	for _, n := range []int{10, 20, 30, 60} {
		exact, _ := new(big.Float).SetInt(MaxAlphaMaximalCliques(n)).Float64()
		est := CentralBinomialEstimate(n)
		if ratio := est / exact; math.Abs(ratio-1) > 0.1 {
			t.Errorf("n=%d: estimate/exact = %v, want within 10%%", n, ratio)
		}
	}
	if CentralBinomialEstimate(0) != 0 {
		t.Error("n=0 estimate should be 0")
	}
}

// The heart of the Theorem 1 reproduction: enumerating the Lemma 1
// construction yields exactly C(n, ⌊n/2⌋) α-maximal cliques, every one of
// size ⌊n/2⌋.
func TestExtremalRealizesBound(t *testing.T) {
	for n := 3; n <= 14; n++ {
		for _, q := range []float64{0.3, 0.7, 0.9} {
			ex := NewExtremal(n, q)
			sizes := map[int]int64{}
			var count int64
			_, err := core.Enumerate(ex.Graph, ex.Alpha, func(c []int, _ float64) bool {
				sizes[len(c)]++
				count++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if ex.ExpectedCount.Cmp(big.NewInt(count)) != 0 {
				t.Fatalf("n=%d q=%v: %d cliques, want %v", n, q, count, ex.ExpectedCount)
			}
			if len(sizes) != 1 || sizes[ex.CliqueSize] != count {
				t.Fatalf("n=%d q=%v: clique sizes %v, want all %d", n, q, sizes, ex.CliqueSize)
			}
		}
	}
}

// Lemma 2 (upper bound), checked empirically: no random uncertain graph may
// exceed C(n, ⌊n/2⌋) α-maximal cliques.
func TestRandomGraphsRespectBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	probs := []float64{0.125, 0.25, 0.5, 0.75, 1}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		b := uncertain.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.7 {
					_ = b.AddEdge(u, v, probs[rng.Intn(len(probs))])
				}
			}
		}
		g := b.Build()
		alpha := []float64{0.5, 0.25, 0.125, 0.01}[rng.Intn(4)]
		count, err := core.Count(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if MaxAlphaMaximalCliques(n).Cmp(big.NewInt(count)) < 0 {
			t.Fatalf("n=%d α=%v: %d cliques exceeds theoretical max %v",
				n, alpha, count, MaxAlphaMaximalCliques(n))
		}
	}
}

func TestNewExtremalValidation(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{2, 0.5}, {5, 0}, {5, 1}, {5, -0.5}} {
		func() {
			defer func() { recover() }()
			NewExtremal(c.n, c.q)
			t.Errorf("NewExtremal(%d, %v) should panic", c.n, c.q)
		}()
	}
}

func TestExtremalGraphShape(t *testing.T) {
	ex := NewExtremal(8, 0.5)
	if ex.Graph.NumVertices() != 8 || ex.Graph.NumEdges() != 28 {
		t.Fatal("extremal graph should be complete K8")
	}
	if ex.CliqueSize != 4 {
		t.Fatalf("CliqueSize = %d, want 4", ex.CliqueSize)
	}
	// Alpha must sit between q^C(5,2)=q^10 and q^C(4,2)=q^6.
	lo := math.Pow(0.5, 10)
	hi := math.Pow(0.5, 6)
	if ex.Alpha <= lo || ex.Alpha > hi {
		t.Fatalf("Alpha = %v outside (%v, %v]", ex.Alpha, lo, hi)
	}
}
