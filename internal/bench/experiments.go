package bench

import (
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sort"

	"github.com/uncertain-graphs/mule/internal/bounds"
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/stats"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Experiment is one reproducible unit of the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the corresponding paper artifact shows
	Run   func(cfg Config, w io.Writer) error
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:    "table1",
			Title: "Table 1: input graphs",
			Paper: "inventory of the evaluation inputs (name, category, |V|, |E|)",
			Run:   runTable1,
		},
		{
			ID:    "figure1",
			Title: "Figure 1: MULE vs DFS-NOIP runtime",
			Paper: "MULE beats DFS-NOIP everywhere; gap grows to orders of magnitude at small α",
			Run:   runFigure1,
		},
		{
			ID:    "figure2",
			Title: "Figure 2: runtime vs α",
			Paper: "runtime drops sharply as α grows (both graph families)",
			Run:   runFigure2,
		},
		{
			ID:    "figure3",
			Title: "Figure 3: number of α-maximal cliques vs α",
			Paper: "clique count drops sharply as α grows",
			Run:   runFigure3,
		},
		{
			ID:    "figure4",
			Title: "Figure 4: runtime vs output size",
			Paper: "runtime is near-proportional to the number of emitted cliques",
			Run:   runFigure4,
		},
		{
			ID:    "figure5",
			Title: "Figure 5: LARGE-MULE runtime vs size threshold",
			Paper: "runtime collapses as t grows (e.g. DBLP: 76797s for all cliques vs 32s at t=3)",
			Run:   runFigure5,
		},
		{
			ID:    "figure6",
			Title: "Figure 6: number of size-≥t α-maximal cliques vs t",
			Paper: "output size drops by orders of magnitude as t grows",
			Run:   runFigure6,
		},
		{
			ID:    "bound",
			Title: "Theorem 1: extremal count f(n,α) = C(n, ⌊n/2⌋)",
			Paper: "matching upper/lower bound on the number of α-maximal cliques",
			Run:   runBound,
		},
		{
			ID:    "ablation",
			Title: "Ablations: pruning, ordering, parallelism",
			Paper: "design-choice measurements beyond the paper",
			Run:   runAblation,
		},
		{
			ID:    "parallel",
			Title: "Parallel scaling: work stealing vs serial",
			Paper: "beyond the paper: speedup on a skewed workload where one top-level branch owns >99% of the search",
			Run:   runParallelScaling,
		},
		{
			ID:    "kernel",
			Title: "Kernel: ns/op, allocs/op, B/op across engines",
			Paper: "beyond the paper: allocation/runtime trajectory of the enumeration kernel (BENCH_kernel.json)",
			Run:   runKernel,
		},
		{
			ID:    "extensions",
			Title: "Extensions: bicliques, quasi-cliques, trusses, cores",
			Paper: "the future-work dense substructures of §6, measured on planted workloads",
			Run:   runExtensions,
		},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable1(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	t := NewTable("Table 1: input graphs (paper sizes vs synthesized sizes)",
		"graph", "category", "paper |V|", "paper |E|", "built |V|", "built |E|", "mean p")
	dblpScale := cfg.DBLPScale
	if cfg.Quick {
		dblpScale = 0.01
	}
	for _, d := range gen.Table1(dblpScale) {
		if cfg.Quick && (d.Name == "BA6000" || d.Name == "BA7000" || d.Name == "BA8000" || d.Name == "BA9000") {
			continue // the family is represented by its endpoints in quick mode
		}
		g := d.Build(cfg.Seed)
		s := uncertain.ComputeStats(g)
		t.Addf(d.Name, d.Category, d.PaperN, d.PaperM, s.Vertices, s.Edges,
			fmt.Sprintf("%.3f", s.MeanProb))
	}
	return t.Render(w)
}

func runFigure1(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	graphs := Figure1Graphs(cfg)
	for _, alpha := range Figure1Alphas {
		t := NewTable(fmt.Sprintf("Figure 1 (α=%g): DFS-NOIP vs MULE", alpha),
			"graph", "DFS-NOIP", "MULE", "speedup", "cliques")
		for _, ng := range graphs {
			noip := TimedNOIP(ng.G, alpha, cfg)
			mule, err := TimedMULE(ng.G, alpha, cfg, core.Config{})
			if err != nil {
				return err
			}
			speedup := "-"
			if mule.Finished && noip.Finished && mule.Elapsed > 0 {
				speedup = fmt.Sprintf("%.1fx", float64(noip.Elapsed)/float64(mule.Elapsed))
			} else if mule.Finished && !noip.Finished && mule.Elapsed > 0 {
				speedup = fmt.Sprintf(">%.1fx", float64(noip.Elapsed)/float64(mule.Elapsed))
			}
			t.Add(ng.Name, formatRun(noip), formatRun(mule), speedup,
				fmt.Sprintf("%d", mule.Cliques))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func formatRun(r RunResult) string {
	if !r.Finished {
		return "> " + stats.Seconds(r.Elapsed) + " (budget)"
	}
	return stats.Seconds(r.Elapsed)
}

func sweepTable(title string, graphs []NamedGraph, cfg Config, w io.Writer,
	cell func(g *uncertain.Graph, alpha float64) (string, error)) error {
	header := []string{"graph"}
	for _, a := range AlphaSweep {
		header = append(header, fmt.Sprintf("α=%g", a))
	}
	t := NewTable(title, header...)
	for _, ng := range graphs {
		row := []string{ng.Name}
		for _, a := range AlphaSweep {
			c, err := cell(ng.G, a)
			if err != nil {
				return err
			}
			row = append(row, c)
		}
		t.Add(row...)
	}
	return t.Render(w)
}

func runFigure2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	timeCell := func(g *uncertain.Graph, alpha float64) (string, error) {
		r, err := TimedMULE(g, alpha, cfg, core.Config{})
		if err != nil {
			return "", err
		}
		return formatRun(r), nil
	}
	if err := sweepTable("Figure 2(a): MULE runtime vs α — random (BA) graphs",
		RandomGraphs(cfg), cfg, w, timeCell); err != nil {
		return err
	}
	return sweepTable("Figure 2(b): MULE runtime vs α — semi-synthetic and real graphs",
		SemiSyntheticGraphs(cfg), cfg, w, timeCell)
}

func runFigure3(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	countCell := func(g *uncertain.Graph, alpha float64) (string, error) {
		r, err := TimedMULE(g, alpha, cfg, core.Config{})
		if err != nil {
			return "", err
		}
		if !r.Finished {
			return fmt.Sprintf("> %d", r.Cliques), nil
		}
		return fmt.Sprintf("%d", r.Cliques), nil
	}
	if err := sweepTable("Figure 3(a): #α-maximal cliques vs α — random (BA) graphs",
		RandomGraphs(cfg), cfg, w, countCell); err != nil {
		return err
	}
	return sweepTable("Figure 3(b): #α-maximal cliques vs α — semi-synthetic and real graphs",
		SemiSyntheticGraphs(cfg), cfg, w, countCell)
}

func runFigure4(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	t := NewTable("Figure 4: runtime vs output size — random (BA) graphs",
		"graph", "α", "cliques", "runtime", "µs/clique")
	var sizes, times []float64
	for _, ng := range RandomGraphs(cfg) {
		for _, alpha := range Figure4Alphas {
			r, err := TimedMULE(ng.G, alpha, cfg, core.Config{})
			if err != nil {
				return err
			}
			if !r.Finished || r.Cliques == 0 {
				continue
			}
			perClique := float64(r.Elapsed.Microseconds()) / float64(r.Cliques)
			t.Add(ng.Name, fmt.Sprintf("%g", alpha), fmt.Sprintf("%d", r.Cliques),
				stats.Seconds(r.Elapsed), fmt.Sprintf("%.2f", perClique))
			sizes = append(sizes, float64(r.Cliques))
			times = append(times, r.Elapsed.Seconds())
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Pearson correlation (output size vs runtime): r = %.4f\n\n",
		stats.Pearson(sizes, times))
	return err
}

// figure56Alphas returns the per-graph α grids of Figures 5 and 6: the BA
// and ca-GrQc panels sweep small thresholds, the DBLP panel sweeps large
// ones (its co-authorship probabilities are mostly ≤ 1-e^{-k/10}).
func figure56Alphas(name string) []float64 {
	if name == "DBLP" {
		return []float64{0.9, 0.5, 0.1}
	}
	return []float64{0.2, 0.01, 0.0005, 0.0001}
}

var figure56Thresholds = []int{2, 3, 4, 5, 6, 7, 8, 9}

func runFigure5(cfg Config, w io.Writer) error {
	return runFigure56(cfg, w, 5, func(r RunResult) string { return formatRun(r) })
}

func runFigure6(cfg Config, w io.Writer) error {
	return runFigure56(cfg, w, 6, func(r RunResult) string {
		if !r.Finished {
			return fmt.Sprintf("> %d", r.Cliques)
		}
		return fmt.Sprintf("%d", r.Cliques)
	})
}

func runFigure56(cfg Config, w io.Writer, figNum int, cell func(RunResult) string) error {
	cfg = cfg.withDefaults()
	what := "runtime"
	if figNum == 6 {
		what = "#cliques(size ≥ t)"
	}
	for _, ng := range LargeCliqueGraphs(cfg) {
		header := []string{"t"}
		alphas := figure56Alphas(ng.Name)
		for _, a := range alphas {
			header = append(header, fmt.Sprintf("α=%g", a))
		}
		t := NewTable(fmt.Sprintf("Figure %d (%s): LARGE-MULE %s vs size threshold", figNum, ng.Name, what), header...)
		for _, minSize := range figure56Thresholds {
			row := []string{fmt.Sprintf("%d", minSize)}
			for _, alpha := range alphas {
				r, err := TimedMULE(ng.G, alpha, cfg, core.Config{MinSize: minSize})
				if err != nil {
					return err
				}
				row = append(row, cell(r))
			}
			t.Add(row...)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func runBound(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	maxN := 16
	if cfg.Quick {
		maxN = 12
	}
	t := NewTable("Theorem 1: α-maximal cliques of the extremal construction",
		"n", "C(n,⌊n/2⌋)", "enumerated", "match", "Moon–Moser (α=1)")
	for n := 4; n <= maxN; n++ {
		ex := bounds.NewExtremal(n, 0.5)
		count, err := core.Count(ex.Graph, ex.Alpha)
		if err != nil {
			return err
		}
		match := "yes"
		if ex.ExpectedCount.Cmp(big.NewInt(count)) != 0 {
			match = "NO"
		}
		t.Addf(n, ex.ExpectedCount, count, match, bounds.MoonMoserBound(n))
	}
	return t.Render(w)
}

func runAblation(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := 5000
	if cfg.Quick {
		n = 1200
	}
	g := gen.BA(n, cfg.Seed)
	alphas := []float64{0.01, 0.0005}

	t := NewTable("Ablation: MULE variants on "+baName(n),
		"variant", "α", "runtime", "cliques", "search calls")
	run := func(name string, alpha float64, c core.Config) error {
		r, err := TimedMULE(g, alpha, cfg, c)
		if err != nil {
			return err
		}
		t.Add(name, fmt.Sprintf("%g", alpha), formatRun(r),
			fmt.Sprintf("%d", r.Cliques), fmt.Sprintf("%d", r.Stats.Calls))
		return nil
	}
	for _, alpha := range alphas {
		if err := run("MULE (natural order)", alpha, core.Config{}); err != nil {
			return err
		}
		if err := run("MULE (no α-pruning)", alpha, core.Config{SkipPrune: true}); err != nil {
			return err
		}
		if err := run("MULE (degeneracy order)", alpha, core.Config{Ordering: core.OrderDegeneracy}); err != nil {
			return err
		}
		if err := run("MULE (degree order)", alpha, core.Config{Ordering: core.OrderDegree}); err != nil {
			return err
		}
		for _, workers := range parallelWorkerGrid(cfg) {
			if err := run(fmt.Sprintf("MULE (work-steal x%d)", workers), alpha, core.Config{Workers: workers}); err != nil {
				return err
			}
		}
		hash := timedHashMULE(g, alpha, cfg)
		t.Add("MULE (hash adjacency)", fmt.Sprintf("%g", alpha), formatRun(hash),
			fmt.Sprintf("%d", hash.Cliques), "-")
		noip := TimedNOIP(g, alpha, cfg)
		t.Add("DFS-NOIP", fmt.Sprintf("%g", alpha), formatRun(noip),
			fmt.Sprintf("%d", noip.Cliques), "-")
	}
	return t.Render(w)
}

// parallelWorkerGrid returns the worker counts measured by the parallel
// scaling experiment: 2, 4, and the configured maximum (cfg.Workers when
// set, else NumCPU), deduplicated and ascending.
func parallelWorkerGrid(cfg Config) []int {
	maxW := cfg.Workers
	if maxW < 2 {
		maxW = runtime.NumCPU()
	}
	grid := []int{}
	for _, w := range []int{2, 4, maxW} {
		if w < 2 || w > maxW {
			continue
		}
		dup := false
		for _, g := range grid {
			if g == w {
				dup = true
			}
		}
		if !dup {
			grid = append(grid, w)
		}
	}
	sort.Ints(grid)
	return grid
}

// parallelRounds is how many timed rounds the parallel scaling experiment
// runs. Each round times serial and then every worker count once, so a
// drift in machine load lands on all of them alike.
const parallelRounds = 5

// runParallelScaling measures serial MULE against the work-stealing engine
// on the skewed hub workload (one top-level branch owns nearly every
// clique, so only splitting it inside can spread the work) and on a
// Barabási–Albert graph (a conventional power-law input). Every
// configuration runs once untimed to warm caches and pools, then
// parallelRounds times; one row per worker count reports the median run,
// with speedup as the serial median over the work-stealing median.
func runParallelScaling(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	type workload struct {
		ng    NamedGraph
		alpha float64
	}
	baN := 5000
	if cfg.Quick {
		baN = 800
	}
	loads := []workload{
		{SkewedCliqueGraph(cfg), SkewedAlpha},
		{NamedGraph{baName(baN), gen.BA(baN, cfg.Seed)}, 0.001},
	}
	workerGrid := append([]int{1}, parallelWorkerGrid(cfg)...)
	t := NewTable(fmt.Sprintf("Parallel scaling (GOMAXPROCS=%d, median of %d rounds after a warm-up): work stealing vs serial",
		runtime.GOMAXPROCS(0), parallelRounds),
		"graph", "engine", "workers", "runtime", "speedup", "cliques", "steals", "splits")
	for _, ld := range loads {
		runs := make([][]RunResult, len(workerGrid))
		for round := 0; round <= parallelRounds; round++ {
			for i, workers := range workerGrid {
				r, err := TimedMULE(ld.ng.G, ld.alpha, cfg, core.Config{Workers: workers})
				if err != nil {
					return err
				}
				if round > 0 { // round 0 is the warm-up
					runs[i] = append(runs[i], r)
				}
			}
		}
		medians := make([]RunResult, len(runs))
		for i, rs := range runs {
			sort.Slice(rs, func(a, b int) bool { return rs[a].Elapsed < rs[b].Elapsed })
			medians[i] = rs[len(rs)/2]
		}
		serial := medians[0]
		t.Add(ld.ng.Name, "serial", "1", formatRun(serial), "1.00x",
			fmt.Sprintf("%d", serial.Cliques), "-", "-")
		for i, r := range medians[1:] {
			speedup := "-"
			if r.Finished && serial.Finished && r.Elapsed > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(serial.Elapsed)/float64(r.Elapsed))
			}
			t.Add(ld.ng.Name, "worksteal", fmt.Sprintf("%d", workerGrid[i+1]), formatRun(r), speedup,
				fmt.Sprintf("%d", r.Cliques),
				fmt.Sprintf("%d", r.Stats.Steals), fmt.Sprintf("%d", r.Stats.Splits))
		}
	}
	return t.Render(w)
}
