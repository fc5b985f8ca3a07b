// Benchmarks for the future-work extensions (paper §6): maximal
// α-bicliques, expected γ-quasi-cliques, (k,η)-trusses and (k,η)-cores,
// plus top-k selection over α-maximal cliques. These artifacts go beyond
// the paper's evaluation; cmd/experiments -exp extensions prints the same
// measurements as tables.
package mule_test

import (
	"context"
	"testing"

	"github.com/uncertain-graphs/mule/internal/bench"
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/dynamic"
	"github.com/uncertain-graphs/mule/internal/topk"
	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/ucore"
	"github.com/uncertain-graphs/mule/internal/uquasi"
	"github.com/uncertain-graphs/mule/internal/utruss"
)

// BenchmarkExtensionBicliques enumerates maximal α-bicliques on the planted
// affinity workload across thresholds.
func BenchmarkExtensionBicliques(b *testing.B) {
	g := bench.AffinityBipartite(200, 150, 6, 1)
	for _, alpha := range []float64{0.5, 0.2} {
		alpha := alpha
		b.Run("alpha="+ftoa(alpha), func(b *testing.B) {
			var emitted int64
			for i := 0; i < b.N; i++ {
				st, err := ubiclique.Enumerate(g, alpha, nil)
				if err != nil {
					b.Fatal(err)
				}
				emitted = st.Emitted
			}
			b.ReportMetric(float64(emitted), "bicliques")
		})
	}
}

// BenchmarkExtensionQuasi mines maximal expected γ-quasi-cliques on planted
// communities.
func BenchmarkExtensionQuasi(b *testing.B) {
	g := bench.CommunityGraph(150, 8, 7, 1)
	for _, gamma := range []float64{0.5, 0.75} {
		gamma := gamma
		b.Run("gamma="+ftoa(gamma), func(b *testing.B) {
			var sets int
			for i := 0; i < b.N; i++ {
				out, err := uquasi.Collect(g, uquasi.Config{Gamma: gamma, MinSize: 4})
				if err != nil {
					b.Fatal(err)
				}
				sets = len(out)
			}
			b.ReportMetric(float64(sets), "sets")
		})
	}
}

// BenchmarkExtensionTruss runs the full η-truss decomposition on the
// ca-GrQc-like quick workload.
func BenchmarkExtensionTruss(b *testing.B) {
	graphs := named(b, "fig1", func() []bench.NamedGraph { return bench.Figure1Graphs(benchCfg) })
	g := pick(graphs, "ca-GrQc").G
	b.Run("decompose", func(b *testing.B) {
		var edges int
		for i := 0; i < b.N; i++ {
			dec, err := utruss.Decompose(g, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			edges = len(dec)
		}
		b.ReportMetric(float64(edges), "edges")
	})
	b.Run("k4-truss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := utruss.Truss(g, 4, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionCore runs the (k,η)-core decomposition on the same
// workload for comparison with the truss.
func BenchmarkExtensionCore(b *testing.B) {
	graphs := named(b, "fig1", func() []bench.NamedGraph { return bench.Figure1Graphs(benchCfg) })
	g := pick(graphs, "ca-GrQc").G
	for i := 0; i < b.N; i++ {
		if _, err := ucore.Decompose(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionTopK measures top-k selection against full enumeration
// cost on the wiki-vote-like workload.
func BenchmarkExtensionTopK(b *testing.B) {
	graphs := named(b, "fig1", func() []bench.NamedGraph { return bench.Figure1Graphs(benchCfg) })
	g := pick(graphs, "wiki-vote").G
	for _, k := range []int{10, 1000} {
		k := k
		b.Run("k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col, err := topk.NewCollector(k, topk.CriterionProb)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Enumerate(g, 0.01, col.Visit); err != nil {
					b.Fatal(err)
				}
				col.Drain()
			}
		})
	}
}

// BenchmarkExtensionDynamic compares one incremental edge update against
// full re-enumeration on a BA workload — the maintenance win of
// internal/dynamic.
func BenchmarkExtensionDynamic(b *testing.B) {
	random := named(b, "random", func() []bench.NamedGraph { return bench.RandomGraphs(benchCfg) })
	g := random[0].G
	alpha := 0.01
	b.Run("incremental-update", func(b *testing.B) {
		m, err := dynamic.New(g, alpha)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate the probability of one hub edge between two values.
			p := 0.9
			if i%2 == 1 {
				p = 0.5
			}
			if _, _, err := m.SetEdgeContext(context.Background(), 0, 1, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Enumerate(g, alpha, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pick returns the named workload from a family, failing loudly when the
// family definition changes.
func pick(graphs []bench.NamedGraph, name string) bench.NamedGraph {
	for _, ng := range graphs {
		if ng.Name == name {
			return ng
		}
	}
	panic("workload " + name + " missing from family")
}
