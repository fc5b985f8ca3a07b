// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each BenchmarkTable*/BenchmarkFigure* corresponds to one artifact;
// DESIGN.md §4 is the index. The benchmarks run the Quick (quarter-scale)
// workloads so `go test -bench=. -benchmem` finishes in minutes;
// cmd/experiments runs the same experiments at paper scale.
//
// Reported custom metrics: "cliques" is the output size of the enumeration
// (the quantity Figures 3, 4 and 6 plot), "us/clique" the per-result cost
// (Figure 4's proportionality claim).
package mule_test

import (
	"sync"
	"testing"
	"time"

	"github.com/uncertain-graphs/mule/internal/baseline"
	"github.com/uncertain-graphs/mule/internal/bench"
	"github.com/uncertain-graphs/mule/internal/bounds"
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

var benchCfg = bench.Config{Quick: true, Seed: 1}

// Workload cache: the synthesizers take seconds; build each family once per
// benchmark binary run.
var cacheMu sync.Mutex

// named returns the cached workload family, building it on first use.
func named(b *testing.B, key string, build func() []bench.NamedGraph) []bench.NamedGraph {
	b.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if gs, ok := families[key]; ok {
		return gs
	}
	gs := build()
	families[key] = gs
	return gs
}

var families = map[string][]bench.NamedGraph{}

func runMULE(b *testing.B, g *uncertain.Graph, alpha float64, cfg core.Config) {
	b.Helper()
	var cliques int64
	for i := 0; i < b.N; i++ {
		stats, err := core.EnumerateWith(g, alpha, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cliques = stats.Emitted
	}
	b.ReportMetric(float64(cliques), "cliques")
	if cliques > 0 {
		perClique := float64(b.Elapsed().Microseconds()) / float64(b.N) / float64(cliques)
		b.ReportMetric(perClique, "us/clique")
	}
}

// BenchmarkEnumerate measures the enumeration kernel itself — the
// allocation-free arena kernel is held to its numbers here (ns/op and,
// via -benchmem, allocs/op and B/op) on the standard random (BA) and
// skewed-hub workloads, serial and work-stealing. cmd/experiments
// -exp kernel records the same cells into the BENCH_kernel.json trajectory.
func BenchmarkEnumerate(b *testing.B) {
	random := named(b, "random", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) })
	loads := []struct {
		ng    bench.NamedGraph
		alpha float64
	}{
		{random[2], 0.001}, // BA1200 in quick mode
		{bench.SkewedCliqueGraph(benchCfg), bench.SkewedAlpha},
	}
	engines := []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{}},
		{"worksteal-4", core.Config{Workers: 4}},
	}
	for _, ld := range loads {
		for _, eng := range engines {
			ld, eng := ld, eng
			b.Run(ld.ng.Name+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				runMULE(b, ld.ng.G, ld.alpha, eng.cfg)
			})
		}
	}
}

// BenchmarkTable1 times the dataset synthesizers themselves (building the
// Table 1 inputs) and reports their sizes.
func BenchmarkTable1(b *testing.B) {
	for _, d := range []struct {
		name  string
		build func() []bench.NamedGraph
	}{
		{"Figure1Inputs", func() []bench.NamedGraph { return bench.Figure1Graphs(benchCfg) }},
		{"RandomFamily", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) }},
		{"SemiSynthetic", func() []bench.NamedGraph { return bench.SemiSyntheticGraphs(benchCfg) }},
	} {
		d := d
		b.Run(d.name, func(b *testing.B) {
			var graphs []bench.NamedGraph
			for i := 0; i < b.N; i++ {
				graphs = d.build()
			}
			edges := 0
			for _, ng := range graphs {
				edges += ng.G.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkFigure1 compares MULE against DFS-NOIP on the four Figure 1
// inputs across its four α panels. The DFS-NOIP cells run under a 30-second
// budget per iteration: the paper itself reports its hardest such cell as
// "> 11 hours" rather than a number (wiki-vote at α = 0.0001), and the same
// blow-up happens at quarter scale. A truncated run reports truncated=1 and
// the cliques it managed — the comparison's shape (MULE finishes, DFS-NOIP
// does not) is the result.
func BenchmarkFigure1(b *testing.B) {
	graphs := named(b, "fig1", func() []bench.NamedGraph { return bench.Figure1Graphs(benchCfg) })
	for _, ng := range graphs {
		for _, alpha := range bench.Figure1Alphas {
			ng, alpha := ng, alpha
			b.Run("MULE/"+ng.Name+"/alpha="+ftoa(alpha), func(b *testing.B) {
				runMULE(b, ng.G, alpha, core.Config{})
			})
			b.Run("DFSNOIP/"+ng.Name+"/alpha="+ftoa(alpha), func(b *testing.B) {
				var cliques int64
				truncated := 0.0
				for i := 0; i < b.N; i++ {
					deadline := time.Now().Add(30 * time.Second)
					count := int64(0)
					stats := baseline.EnumerateNOIP(ng.G, alpha, func([]int, float64) bool {
						count++
						if count%256 == 0 && time.Now().After(deadline) {
							truncated = 1
							return false
						}
						return true
					})
					cliques = int64(stats.Emitted)
				}
				b.ReportMetric(float64(cliques), "cliques")
				b.ReportMetric(truncated, "truncated")
			})
		}
	}
}

// BenchmarkFigure2 sweeps α on both graph families, timing MULE (the
// runtime-vs-α curves).
func BenchmarkFigure2(b *testing.B) {
	alphas := []float64{0.9, 0.1, 0.001, 0.0001}
	random := named(b, "random", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) })
	semi := named(b, "semi", func() []bench.NamedGraph { return bench.SemiSyntheticGraphs(benchCfg) })
	for _, family := range []struct {
		tag    string
		graphs []bench.NamedGraph
	}{{"random", random}, {"semi", semi}} {
		for _, ng := range family.graphs {
			for _, alpha := range alphas {
				ng, alpha := ng, alpha
				b.Run(family.tag+"/"+ng.Name+"/alpha="+ftoa(alpha), func(b *testing.B) {
					runMULE(b, ng.G, alpha, core.Config{})
				})
			}
		}
	}
}

// BenchmarkFigure3 measures the output sizes (cliques metric) on the same
// sweep's complementary α values.
func BenchmarkFigure3(b *testing.B) {
	alphas := []float64{0.5, 0.05, 0.005, 0.0005}
	random := named(b, "random", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) })
	semi := named(b, "semi", func() []bench.NamedGraph { return bench.SemiSyntheticGraphs(benchCfg) })
	for _, family := range []struct {
		tag    string
		graphs []bench.NamedGraph
	}{{"random", random}, {"semi", semi}} {
		for _, ng := range family.graphs {
			for _, alpha := range alphas {
				ng, alpha := ng, alpha
				b.Run(family.tag+"/"+ng.Name+"/alpha="+ftoa(alpha), func(b *testing.B) {
					runMULE(b, ng.G, alpha, core.Config{})
				})
			}
		}
	}
}

// BenchmarkFigure4 exercises the runtime-vs-output-size relation on the BA
// family (see the us/clique metric, which should be near-constant).
func BenchmarkFigure4(b *testing.B) {
	random := named(b, "random", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) })
	for _, ng := range []bench.NamedGraph{random[0], random[2], random[5]} {
		for _, alpha := range bench.Figure4Alphas {
			ng, alpha := ng, alpha
			b.Run(ng.Name+"/alpha="+ftoa(alpha), func(b *testing.B) {
				runMULE(b, ng.G, alpha, core.Config{})
			})
		}
	}
}

// BenchmarkFigure5 times LARGE-MULE across size thresholds.
func BenchmarkFigure5(b *testing.B) {
	graphs := named(b, "large", func() []bench.NamedGraph { return bench.LargeCliqueGraphs(benchCfg) })
	for _, ng := range graphs {
		alpha := 0.0005
		if ng.Name == "DBLP" {
			alpha = 0.5
		}
		for _, t := range []int{3, 5, 7} {
			ng, t := ng, t
			b.Run(ng.Name+"/t="+itoa(t)+"/alpha="+ftoa(alpha), func(b *testing.B) {
				runMULE(b, ng.G, alpha, core.Config{MinSize: t})
			})
		}
	}
}

// BenchmarkFigure6 measures the size-≥t output counts across thresholds.
func BenchmarkFigure6(b *testing.B) {
	graphs := named(b, "large", func() []bench.NamedGraph { return bench.LargeCliqueGraphs(benchCfg) })
	for _, ng := range graphs {
		alpha := 0.0001
		if ng.Name == "DBLP" {
			alpha = 0.1
		}
		for _, t := range []int{2, 4, 6, 8} {
			ng, t := ng, t
			b.Run(ng.Name+"/t="+itoa(t)+"/alpha="+ftoa(alpha), func(b *testing.B) {
				runMULE(b, ng.G, alpha, core.Config{MinSize: t})
			})
		}
	}
}

// BenchmarkTheorem1 enumerates the extremal construction (the C(n,⌊n/2⌋)
// worst case of §3).
func BenchmarkTheorem1(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		n := n
		b.Run("n="+itoa(n), func(b *testing.B) {
			ex := bounds.NewExtremal(n, 0.5)
			b.ResetTimer()
			var count int64
			for i := 0; i < b.N; i++ {
				c, err := core.Count(ex.Graph, ex.Alpha)
				if err != nil {
					b.Fatal(err)
				}
				count = c
			}
			b.ReportMetric(float64(count), "cliques")
		})
	}
}

// BenchmarkAblation measures the design choices DESIGN.md §6 calls out:
// α-pruning, vertex ordering, and the parallel driver.
func BenchmarkAblation(b *testing.B) {
	random := named(b, "random", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) })
	g := random[2].G // BA1200 in quick mode
	alpha := 0.001
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"baseline", core.Config{}},
		{"no-alpha-pruning", core.Config{SkipPrune: true}},
		{"order-degree", core.Config{Ordering: core.OrderDegree}},
		{"order-degeneracy", core.Config{Ordering: core.OrderDegeneracy}},
		{"order-random", core.Config{Ordering: core.OrderRandom, Seed: 7}},
		{"parallel-2", core.Config{Workers: 2}},
		{"parallel-4", core.Config{Workers: 4}},
		{"parallel-8", core.Config{Workers: 8}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			runMULE(b, g, alpha, v.cfg)
		})
	}
	b.Run("hash-adjacency", func(b *testing.B) {
		// DESIGN.md §6 item 4: hash-map lookups instead of sorted merges.
		for i := 0; i < b.N; i++ {
			baseline.EnumerateHashMULE(g, alpha, nil)
		}
	})
	b.Run("dfs-noip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.EnumerateNOIP(g, alpha, nil)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	switch f {
	case 0.0001:
		return "1e-4"
	case 0.0005:
		return "5e-4"
	case 0.001:
		return "1e-3"
	case 0.005:
		return "5e-3"
	case 0.01:
		return "0.01"
	case 0.05:
		return "0.05"
	case 0.1:
		return "0.1"
	case 0.2:
		return "0.2"
	case 0.5:
		return "0.5"
	case 0.75:
		return "0.75"
	case 0.8:
		return "0.8"
	case 0.9:
		return "0.9"
	default:
		return "x"
	}
}
