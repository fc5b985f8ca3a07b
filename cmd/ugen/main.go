// Command ugen generates uncertain graphs: the paper's Table 1 dataset
// synthesizers or parameterized random topologies with pluggable probability
// assigners.
//
// Usage:
//
//	ugen -dataset BA5000 -seed 7 -out ba5000.ug
//	ugen -dataset wiki-vote -out wiki.ugb
//	ugen -topology ba -n 2000 -m 10 -probs uniform -out ba2000.ug
//	ugen -topology gnp -n 500 -p 0.01 -probs const:0.8 -out gnp.ug
//	ugen -topology hk -n 3000 -m 5 -pt 0.7 -probs beta:2:5 -out hk.ug
//	ugen -topology affinity -n 800 -nright 600 -blocks 25 -out aff.ubg
//	ugen -list
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/uncertain-graphs/mule/internal/bench"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/graphio"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ugen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ugen", flag.ContinueOnError)
	var (
		dataset  = fs.String("dataset", "", "named Table 1 dataset (see -list)")
		topology = fs.String("topology", "", "random topology: ba|gnp|gnm|ws|hk|affinity (bipartite)")
		n        = fs.Int("n", 1000, "vertices (topology mode; left side for affinity)")
		nRight   = fs.Int("nright", 750, "right-side vertices (affinity)")
		blocks   = fs.Int("blocks", 20, "planted cohorts (affinity)")
		m        = fs.Int("m", 5, "edges per vertex (ba/hk) or total edges (gnm)")
		p        = fs.Float64("p", 0.01, "edge probability (gnp)")
		pt       = fs.Float64("pt", 0.5, "triad-formation probability (hk)")
		k        = fs.Int("k", 6, "ring-lattice degree (ws)")
		beta     = fs.Float64("beta", 0.1, "rewiring probability (ws)")
		probs    = fs.String("probs", "uniform", "probability assigner: uniform|const:P|dyadic|beta:A:B")
		seed     = fs.Int64("seed", 1, "generator seed")
		scale    = fs.Float64("dblp-scale", 0.05, "DBLP dataset scale (1.0 = full 685k authors)")
		out      = fs.String("out", "", "output file (.ug text, .ugb binary; required unless -list)")
		list     = fs.Bool("list", false, "list named datasets and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, d := range gen.Table1(*scale) {
			fmt.Printf("%-16s %-38s |V|=%-8d |E|=%d\n", d.Name, d.Category, d.PaperN, d.PaperM)
		}
		return nil
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("missing -out")
	}

	if *topology == "affinity" {
		// Bipartite planted-cohort workload; written in the .ubg text format
		// that mule -mine bicliques reads.
		bg := bench.AffinityBipartite(*n, *nRight, *blocks, *seed)
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := graphio.WriteBipartiteText(f, bg); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s: bipartite %dx%d, %d edges\n",
			*out, bg.NumLeft(), bg.NumRight(), bg.NumEdges())
		return nil
	}

	var g *uncertain.Graph
	switch {
	case *dataset != "":
		d, ok := findDataset(*dataset, *scale)
		if !ok {
			return fmt.Errorf("unknown dataset %q (try -list)", *dataset)
		}
		g = d.Build(*seed)
	case *topology != "":
		pf, err := parseProbs(*probs)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed))
		edges, err := buildTopology(*topology, *n, *m, *p, *pt, *k, *beta, rng)
		if err != nil {
			return err
		}
		g, err = gen.BuildUncertain(*n, edges, pf, rng)
		if err != nil {
			return err
		}
	default:
		fs.Usage()
		return fmt.Errorf("need -dataset or -topology")
	}

	if err := graphio.SaveFile(*out, g); err != nil {
		return err
	}
	s := uncertain.ComputeStats(g)
	fmt.Fprintf(os.Stderr, "wrote %s: %s\n", *out, s)
	return nil
}

func findDataset(name string, scale float64) (gen.Dataset, bool) {
	for _, d := range gen.Table1(scale) {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return gen.Dataset{}, false
}

func buildTopology(kind string, n, m int, p, pt float64, k int, beta float64, rng *rand.Rand) ([][2]int, error) {
	switch kind {
	case "ba":
		return gen.BarabasiAlbert(n, m, rng), nil
	case "gnp":
		return gen.GNP(n, p, rng), nil
	case "gnm":
		return gen.GNM(n, m, rng), nil
	case "ws":
		return gen.WattsStrogatz(n, k, beta, rng), nil
	case "hk":
		return gen.HolmeKim(n, m, pt, rng), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}

func parseProbs(s string) (gen.ProbFunc, error) {
	parts := strings.Split(s, ":")
	switch parts[0] {
	case "uniform":
		return gen.UniformProb(), nil
	case "dyadic":
		return gen.DyadicProb(3), nil
	case "const":
		if len(parts) != 2 {
			return nil, fmt.Errorf("const needs a value, e.g. const:0.8")
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad const probability %q", parts[1])
		}
		return gen.ConstProb(v), nil
	case "beta":
		if len(parts) != 3 {
			return nil, fmt.Errorf("beta needs two shapes, e.g. beta:2:5")
		}
		a, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad beta shape %q", parts[1])
		}
		b, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad beta shape %q", parts[2])
		}
		return gen.BetaProb(a, b), nil
	default:
		return nil, fmt.Errorf("unknown probability assigner %q", s)
	}
}
