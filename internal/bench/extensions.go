package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/stats"
	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/ucore"
	"github.com/uncertain-graphs/mule/internal/uncertain"
	"github.com/uncertain-graphs/mule/internal/uquasi"
	"github.com/uncertain-graphs/mule/internal/utruss"
)

// AffinityBipartite builds the planted-cohort user-product graph used by the
// biclique extension experiment: `blocks` dense high-probability cohorts of
// ~blockUsers x blockProducts inside uniform background noise.
func AffinityBipartite(nUsers, nProducts, blocks int, seed int64) *ubiclique.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := ubiclique.NewBuilder(nUsers, nProducts)
	blockUsers, blockProducts := 6, 4
	for blk := 0; blk < blocks; blk++ {
		u0 := rng.Intn(max(1, nUsers-blockUsers))
		p0 := rng.Intn(max(1, nProducts-blockProducts))
		for u := u0; u < u0+blockUsers && u < nUsers; u++ {
			for p := p0; p < p0+blockProducts && p < nProducts; p++ {
				_ = b.UpsertEdge(u, p, 0.8+rng.Float64()*0.19)
			}
		}
	}
	// Background noise at ~4 edges per user.
	target := 4 * nUsers
	for i := 0; i < target; i++ {
		_ = b.UpsertEdge(rng.Intn(nUsers), rng.Intn(nProducts), 0.1+rng.Float64()*0.7)
	}
	return b.Build()
}

// CommunityGraph builds the planted-communities uncertain graph used by the
// quasi-clique and truss extension experiments: `communities` cliques of
// `size` vertices with strong edges, plus sparse weak background noise.
func CommunityGraph(n, communities, size int, seed int64) *uncertain.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges, _ := gen.PlantedCliques(n, communities, size, 0.01, rng)
	b := uncertain.NewBuilder(n)
	for _, e := range edges {
		_ = b.UpsertEdge(e[0], e[1], 0.6+rng.Float64()*0.39)
	}
	return b.Build()
}

// runExtensions regenerates the extension tables: the future-work dense
// substructures of §6 measured on planted workloads. These artifacts go
// beyond the paper; EXPERIMENTS.md records them alongside the paper's own.
func runExtensions(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	if err := runExtBicliques(cfg, w); err != nil {
		return err
	}
	if err := runExtQuasi(cfg, w); err != nil {
		return err
	}
	return runExtTrussCore(cfg, w)
}

func runExtBicliques(cfg Config, w io.Writer) error {
	nU, nP, blocks := 800, 600, 25
	if cfg.Quick {
		nU, nP, blocks = 200, 150, 6
	}
	g := AffinityBipartite(nU, nP, blocks, cfg.Seed)
	t := NewTable(fmt.Sprintf("Extension: maximal α-bicliques on affinity graph (%dx%d, %d edges)",
		g.NumLeft(), g.NumRight(), g.NumEdges()),
		"α", "bicliques", "largest LxR", "search calls", "runtime")
	for _, alpha := range []float64{0.5, 0.2, 0.05} {
		// Enumeration runs under cfg.Budget like every paper experiment;
		// runs that exceed it are reported as "> budget".
		deadline := time.Now().Add(cfg.Budget)
		finished := true
		count := int64(0)
		visit := func([]int, []int, float64) bool {
			count++
			if count%1024 == 0 && time.Now().After(deadline) {
				finished = false
				return false
			}
			return true
		}
		var st ubiclique.Stats
		var err error
		elapsed := stats.Time(func() {
			st, err = ubiclique.Enumerate(g, alpha, visit)
		})
		if err != nil {
			return err
		}
		runtime := stats.Seconds(elapsed)
		emitted := fmt.Sprintf("%d", st.Emitted)
		if !finished {
			runtime = "> " + runtime + " (budget)"
			emitted = "> " + emitted
		}
		t.Addf(fmt.Sprintf("%g", alpha), emitted,
			fmt.Sprintf("%dx%d", st.MaxLeft, st.MaxRight), st.Calls, runtime)
	}
	return t.Render(w)
}

func runExtQuasi(cfg Config, w io.Writer) error {
	n, communities, size := 400, 20, 8
	if cfg.Quick {
		n, communities, size = 150, 8, 7
	}
	g := CommunityGraph(n, communities, size, cfg.Seed)
	t := NewTable(fmt.Sprintf("Extension: maximal expected γ-quasi-cliques (n=%d, m=%d, planted %d-communities)",
		g.NumVertices(), g.NumEdges(), size),
		"γ", "min size", "maximal sets", "largest", "runtime")
	for _, gamma := range []float64{0.5, 0.75, 0.9} {
		var sets [][]int
		var err error
		elapsed := stats.Time(func() {
			sets, err = uquasi.Collect(g, uquasi.Config{Gamma: gamma, MinSize: 4})
		})
		if err != nil {
			return err
		}
		largest := 0
		for _, s := range sets {
			if len(s) > largest {
				largest = len(s)
			}
		}
		t.Addf(fmt.Sprintf("%g", gamma), 4, len(sets), largest, stats.Seconds(elapsed))
	}
	return t.Render(w)
}

func runExtTrussCore(cfg Config, w io.Writer) error {
	var g *uncertain.Graph
	if cfg.Quick {
		g = gen.CollaborationLikeN(1310, 7245, cfg.Seed)
	} else {
		g = gen.CollaborationLike(cfg.Seed)
	}
	t := NewTable(fmt.Sprintf("Extension: (k,η)-truss and (k,η)-core sizes on ca-GrQc-like (n=%d, m=%d, η=0.5)",
		g.NumVertices(), g.NumEdges()),
		"k", "truss edges", "core vertices", "truss runtime", "core runtime")
	for _, k := range []int{3, 4, 5, 6} {
		var tr *uncertain.Graph
		var err error
		trussTime := stats.Time(func() {
			tr, err = utruss.Truss(g, k, 0.5)
		})
		if err != nil {
			return err
		}
		var core []int
		coreTime := stats.Time(func() {
			core, err = ucore.Core(g, k, 0.5)
		})
		if err != nil {
			return err
		}
		t.Addf(k, tr.NumEdges(), len(core), stats.Seconds(trussTime), stats.Seconds(coreTime))
	}
	return t.Render(w)
}
