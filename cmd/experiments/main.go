// Command experiments regenerates the paper's evaluation artifacts (Table 1
// and Figures 1–6) plus the Theorem 1 bound check and ablation studies.
//
// Usage:
//
//	experiments -list                     # show available experiments
//	experiments -exp figure1 -quick       # quarter-scale inputs, fast
//	experiments -exp figure2              # paper-scale inputs
//	experiments -exp all -quick           # everything, scaled down
//	experiments -exp figure5 -dblp-scale 0.1 -budget 10m
//	experiments -exp parallel -workers 8  # work-stealing speedups over serial
//
// Paper-scale DFS-NOIP cells at small α can take hours (the paper reports
// 11+ hours for wiki-vote at α=0.0001); -budget caps each run and reports
// "> budget" for the ones that exceed it, preserving the comparison's shape
// without the wait. EXPERIMENTS.md records a full set of measured outputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/uncertain-graphs/mule/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "", "experiment id or 'all' (see -list)")
		quick     = fs.Bool("quick", false, "scaled-down inputs (seconds instead of minutes/hours)")
		seed      = fs.Int64("seed", 1, "workload seed")
		dblpScale = fs.Float64("dblp-scale", 0.05, "DBLP scale for full mode (1.0 = 685k authors)")
		budget    = fs.Duration("budget", 2*time.Minute, "per-run time budget")
		workers   = fs.Int("workers", 0, "max parallel workers for the ablation and parallel experiments (0 = NumCPU)")
		list      = fs.Bool("list", false, "list experiments and exit")

		kernelOut     = fs.String("kernel-out", "", "kernel experiment: trajectory file to merge the run into (e.g. BENCH_kernel.json)")
		kernelLabel   = fs.String("kernel-label", "", "kernel experiment: label for this run in the trajectory")
		kernelOnce    = fs.Bool("kernel-once", false, "kernel experiment: single timed iteration per cell (CI smoke mode)")
		kernelDiff    = fs.String("kernel-diff", "", "kernel experiment: fail on cells whose cliques or search calls differ from the newest row of this trajectory file with the same quick flag, or whose ns/op regressed vs its latest comparable row")
		kernelDiffPct = fs.Float64("kernel-diff-pct", 25, "kernel experiment: regression tolerance for -kernel-diff, in percent")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %s\n           paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}
	cfg := bench.Config{
		Seed:          *seed,
		Quick:         *quick,
		DBLPScale:     *dblpScale,
		Budget:        *budget,
		Workers:       *workers,
		KernelOut:     *kernelOut,
		KernelLabel:   *kernelLabel,
		KernelOnce:    *kernelOnce,
		KernelDiff:    *kernelDiff,
		KernelDiffPct: *kernelDiffPct,
	}
	if *exp == "all" {
		for _, e := range bench.Registry() {
			fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
			start := time.Now()
			if err := e.Run(cfg, os.Stdout); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Printf("(%s finished in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", *exp)
	}
	return e.Run(cfg, os.Stdout)
}
