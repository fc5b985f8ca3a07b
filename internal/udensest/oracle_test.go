package udensest

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// This file bounds the scorer, and the reference's scorer, against an
// exact Poisson-binomial DP in math/big. Every float64 is a dyadic
// rational: a probability p = a·2⁻ᴸ with a an integer and L = 53 − e for
// p's binary exponent e (math.Frexp). One edge step multiplies each
// entry's denominator by at most 2ᴸ, so a row over edges with exponents
// L₁, …, L_m holds integer multiples of 2^-(L₁+…+L_m) no larger than 1,
// and big.Float at L₁ + … + L_m bits computes it exactly. The oracle checks
// every operation's accuracy all the same.
//
// The bound. With u = 2⁻⁵³, T a candidate's exact tail, P the scorer's and
// m the candidate's internal edge count (the DP has taken exactly m steps
// when P is read):
//
//	|P − T| ≤ γ·T + (m+1)·2⁻¹⁰²²,  γ = 4mu / (1 − 4mu).
//
// The relative term. Every quantity is non-negative, so each rounding with
// a normal result is a factor in [1−u, 1+u]. A step computes an entry as
// fl(fl(x·fl(1−p)) + fl(y·p)): x's term carries three roundings (1−p, the
// product, the sum) and y's term two. The step's exact matrix, 1−p on the
// diagonal and p below it, is non-negative and keeps the row's sum, so
// after m steps every entry lies within a factor (1±u)^{3m} of the exact
// row, apart from the absolute terms below. The tail adds at most m+1
// entries, which rounds each at most m more times: (1±u)^{4m} in all, and
// (1+u)^{4m} − 1 ≤ γ.
//
// The absolute terms. A flush removes an entry below 2⁻¹⁰²², and a chain
// has at most m flushes by the time it reads a candidate with m edges: the
// band starts one entry wide, grows by one per edge and loses one per
// flush. A product that rounds in the subnormal range is off by at most
// 2⁻¹⁰⁷⁵ instead, with at most 2(m+1) products a step, so m(m+1)·2⁻¹⁰⁷⁴
// ≤ 2⁻¹⁰²³ for m < 2²⁵. Since the step matrix never amplifies mass, these
// reach a tail unchanged but for the (1±u) factors, and m·2⁻¹⁰²² + 2⁻¹⁰²³,
// scaled by 1 + γ, stays below (m+1)·2⁻¹⁰²².

// oracleScore is a candidate's exact tail and its internal edge count.
type oracleScore struct {
	tail  *big.Float
	edges int
}

// mustExact fails the test when z's last operation rounded.
func mustExact(t testing.TB, z *big.Float) *big.Float {
	t.Helper()
	if z.Acc() != big.Exact {
		t.Fatalf("oracle DP rounded at %d bits", z.Prec())
	}
	return z
}

// exactScores scores the unscored peel family exactly, chain by chain, keyed
// by vertex set. Like scoreChain, each chain enters its vertices smallest
// candidate first and reads a candidate's tail once its vertices are in.
func exactScores(t testing.TB, g *uncertain.Graph, cands []Candidate, dstar float64) map[string]oracleScore {
	t.Helper()
	out := make(map[string]oracleScore, len(cands))
	member := make([]bool, g.NumVertices())
	for start := 0; start < len(cands); {
		end := start + 1
		for end < len(cands) && isSubsetSorted(cands[end].Vertices, cands[end-1].Vertices) {
			end++
		}
		// The chain's edge probabilities in entry order, and how many of them
		// each candidate holds.
		var probs []float64
		edges := make([]int, end)
		for i := end - 1; i >= start; i-- {
			for _, v := range cands[i].Vertices {
				if member[v] {
					continue
				}
				member[v] = true
				row, pr := g.Adjacency(v)
				for r, w := range row {
					if member[w] {
						probs = append(probs, pr[r])
					}
				}
			}
			edges[i] = len(probs)
		}
		for _, v := range cands[start].Vertices {
			member[v] = false
		}
		prec := uint(64)
		for _, p := range probs {
			_, e := math.Frexp(p)
			prec += uint(53 - e)
		}
		num := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
		dist := []*big.Float{num(1)}
		for i, step := end-1, 0; i >= start; i-- {
			for ; step < edges[i]; step++ {
				p := num(probs[step])
				q := mustExact(t, num(0).Sub(num(1), p))
				dist = append(dist, num(0))
				for j := len(dist) - 1; j >= 0; j-- {
					x := mustExact(t, num(0).Mul(dist[j], q))
					if j > 0 {
						mustExact(t, x.Add(x, mustExact(t, num(0).Mul(dist[j-1], p))))
					}
					dist[j] = x
				}
			}
			k := int(math.Ceil(dstar*float64(len(cands[i].Vertices)) - 1e-9))
			tail := num(0)
			for j := max(k, 0); j < len(dist); j++ {
				mustExact(t, tail.Add(tail, dist[j]))
			}
			out[fmt.Sprint(cands[i].Vertices)] = oracleScore{tail, edges[i]}
		}
		start = end
	}
	return out
}

// withinOracle reports whether p meets the bound above against o, deciding
// in exact rationals: |P − T|·(1 − 4mu) ≤ 4mu·T + (m+1)·2⁻¹⁰²²·(1 − 4mu).
func withinOracle(p float64, o oracleScore) bool {
	pow2 := func(e uint) *big.Rat { return new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), e)) }
	tail, _ := o.tail.Rat(nil)
	fourMU := new(big.Rat).Mul(big.NewRat(int64(4*o.edges), 1), pow2(53))
	keep := new(big.Rat).Sub(big.NewRat(1, 1), fourMU)
	diff := new(big.Rat).Sub(new(big.Rat).SetFloat64(p), tail)
	lhs := new(big.Rat).Mul(diff.Abs(diff), keep)
	flushed := new(big.Rat).Mul(big.NewRat(int64(o.edges+1), 1), pow2(1022))
	rhs := new(big.Rat).Add(new(big.Rat).Mul(fourMU, tail), flushed.Mul(flushed, keep))
	return lhs.Cmp(rhs) <= 0
}

// checkWithinOracle runs the miner and the reference on g and requires every
// reported candidate to meet the bound against the exact DP. It returns how
// many candidates have an exact tail in (0, 2⁻⁹⁰⁰).
func checkWithinOracle(t testing.TB, name string, g *uncertain.Graph) (tiny int) {
	t.Helper()
	ctx := context.Background()
	family, _, err := PeelContext(ctx, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := exactScores(t, g, family, BestDensity(family))
	floor := new(big.Float).SetMantExp(big.NewFloat(1), -900)
	for _, o := range want {
		if o.tail.Sign() > 0 && o.tail.Cmp(floor) < 0 {
			tiny++
		}
	}
	for _, run := range []struct {
		label string
		run   densestRunner
	}{{"miner", RunContext}, {"reference", refRunContext}} {
		var got []Candidate
		if _, err := run.run(ctx, g, Config{}, func(c Candidate) bool {
			got = append(got, c)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d candidates, peel family %d", name, run.label, len(got), len(want))
		}
		for _, c := range got {
			o, ok := want[fmt.Sprint(c.Vertices)]
			if !ok {
				t.Fatalf("%s %s: candidate %v is not in the peel family", name, run.label, c.Vertices)
			}
			if !withinOracle(c.Probability, o) {
				t.Fatalf("%s %s: candidate %v (%d edges) scored %g (%x), exact tail %s",
					name, run.label, c.Vertices, o.edges, c.Probability, math.Float64bits(c.Probability), o.tail.Text('g', 20))
			}
		}
	}
	return tiny
}

// dyadicProb decodes one byte into a probability: the low four bits pick a
// mantissa (1..16)/16 and the high four bits a scale 2⁻⁴ᵉ, e ≤ 15, so the
// values run from 1 down to 2⁻⁶⁴.
func dyadicProb(b byte) float64 {
	return math.Ldexp(float64(1+b&15)/16, -4*int(b>>4))
}

// oracleGraph decodes a fuzz input: the first byte picks n in [2, 16], and
// each following byte triple is an edge (u mod n, v mod n, dyadicProb),
// self-loops skipped and later duplicates replacing earlier ones.
func oracleGraph(data []byte) *uncertain.Graph {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%15
	b := uncertain.NewBuilder(n)
	for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
		if u, v := int(rest[0])%n, int(rest[1])%n; u != v {
			_ = b.UpsertEdge(u, v, dyadicProb(rest[2]))
		}
	}
	return b.Build()
}

// certainCorePeriphery is K8 with every edge certain, plus six periphery
// vertices joined to six core vertices each at probability dyadicProb(pb).
// The peel strips the periphery one vertex at a time, and the candidate
// with j periphery vertices must realize ⌈3.5·j⌉ of its 6j periphery
// edges. At 2⁻⁶⁰ (pb 0xff) its exact tail is about 2⁻²³⁶ at j = 1, 2⁻⁸¹⁹
// at j = 4 and 2⁻¹⁰⁵⁴ at j = 5; at 2⁻⁵⁶ (pb 0xef) it is about 2⁻⁹⁸² at
// j = 5, which a floor anywhere from 2⁻⁹⁸⁰ up would flush.
func certainCorePeriphery(pb byte) []byte {
	data := []byte{12} // n = 14
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			data = append(data, byte(u), byte(v), 0x0f) // p = 1
		}
	}
	for x := 0; x < 6; x++ {
		for i := 0; i < 6; i++ {
			data = append(data, byte(8+x), byte((x+i)%8), pb)
		}
	}
	return data
}

// oracleCorpus returns the certain core with its periphery at 2⁻⁶⁰ and at
// 2⁻⁵⁶, and 40 random dyadic graphs with 3–16 vertices: every probability
// from dyadicProb in a quarter of them, (1..16)/16 with one edge in four
// from dyadicProb in another, and quarters or 1/256ths in the rest.
func oracleCorpus() []namedGraph {
	out := []namedGraph{
		{"certain-core-periphery-60", oracleGraph(certainCorePeriphery(0xff))},
		{"certain-core-periphery-56", oracleGraph(certainCorePeriphery(0xef))},
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 40; i++ {
		n := 3 + rng.Intn(14)
		density := 0.2 + 0.7*rng.Float64()
		b := uncertain.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() >= density {
					continue
				}
				var p float64
				switch i % 4 {
				case 0:
					p = dyadicProb(byte(rng.Intn(256)))
				case 1:
					p = float64(1+rng.Intn(16)) / 16
					if rng.Intn(4) == 0 {
						p = dyadicProb(byte(rng.Intn(256)))
					}
				case 2:
					p = float64(1+rng.Intn(4)) / 4
				default:
					p = float64(1+rng.Intn(256)) / 256
				}
				_ = b.AddEdge(u, v, p)
			}
		}
		out = append(out, namedGraph{fmt.Sprintf("dyadic%d", i), b.Build()})
	}
	return out
}

// TestScoreWithinOracle bounds every candidate the miner and the reference
// report against the exact DP, on a corpus that must hold candidates whose
// exact tail lies below 2⁻⁹⁰⁰, where the flush term of the bound counts.
func TestScoreWithinOracle(t *testing.T) {
	tiny := 0
	for _, ng := range oracleCorpus() {
		tiny += checkWithinOracle(t, ng.name, ng.g)
	}
	if tiny == 0 {
		t.Fatal("no candidate has an exact tail below 2⁻⁹⁰⁰; the corpus no longer exercises the flush")
	}
	t.Logf("%d candidates with an exact tail in (0, 2⁻⁹⁰⁰)", tiny)
}

// FuzzScoreWithinOracle runs the same check on graphs decoded by
// oracleGraph.
func FuzzScoreWithinOracle(f *testing.F) {
	f.Add(certainCorePeriphery(0xff))
	f.Add([]byte{3, 0, 1, 0x0f, 1, 2, 0x07, 2, 3, 0x83, 0, 3, 0xf5, 1, 3, 0x4c})
	f.Add([]byte{2, 0, 1, 0x0f, 0, 2, 0x0f, 1, 2, 0x0f, 3, 0, 0xef, 3, 1, 0xef, 3, 2, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if g := oracleGraph(data); g != nil {
			checkWithinOracle(t, "fuzz", g)
		}
	})
}
