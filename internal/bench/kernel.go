package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// The kernel experiment measures the enumeration kernel itself — ns/op,
// allocs/op and B/op for the serial driver and both parallel engines across
// the standard workloads — and appends the results to a machine-readable
// trajectory file (BENCH_kernel.json at the repo root). Every performance PR
// records a labeled run, so regressions and wins are visible across the
// repo's history rather than only in prose.

// KernelEntry is one measured (workload, engine) cell.
type KernelEntry struct {
	Workload    string  `json:"workload"`
	Alpha       float64 `json:"alpha"`
	MinSize     int     `json:"min_size,omitempty"`
	Engine      string  `json:"engine"` // serial | worksteal | toplevel
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Cliques     int64   `json:"cliques"`
	Calls       int64   `json:"search_calls"`
}

// KernelRun is one labeled sweep of the kernel benchmark.
type KernelRun struct {
	Label     string         `json:"label"`
	Date      string         `json:"date"`
	GoVersion string         `json:"go_version"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	NumCPU    int            `json:"num_cpu"`
	Quick     bool           `json:"quick"`
	Once      bool           `json:"once,omitempty"` // single-iteration smoke run
	Speedup   *KernelSpeedup `json:"speedup,omitempty"`
	Entries   []KernelEntry  `json:"entries"`
}

// KernelSpeedup is the trajectory form of the TestWorkStealingSpeedup
// acceptance measurement: serial vs both parallel engines on the skewed hub
// workload. Recorded only on machines with ≥4 usable CPUs — on smaller
// boxes no engine can demonstrate a speedup, so the block is omitted and
// rows stay comparable via the `num_cpu` key.
type KernelSpeedup struct {
	Workload    string  `json:"workload"`
	Workers     int     `json:"workers"`
	SerialNs    float64 `json:"serial_ns"`
	TopLevelNs  float64 `json:"toplevel_ns"`
	WorkStealNs float64 `json:"worksteal_ns"`
	Speedup     float64 `json:"worksteal_speedup"` // serial / worksteal
	Cliques     int64   `json:"cliques"`
}

// SpeedupCPUs returns the worker count the speedup cell runs with, or 0
// when the machine cannot demonstrate one (fewer than 4 usable CPUs).
func SpeedupCPUs() int {
	cpus := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < cpus {
		cpus = g
	}
	if cpus < 4 {
		return 0
	}
	return cpus
}

// MeasureSpeedup times serial, top-level and work-stealing once each on the
// skewed hub workload (after a warm-up pass) — the exact measurement
// TestWorkStealingSpeedup gates on, shared here so the acceptance numbers
// land in the trajectory file instead of only in transient test logs.
func MeasureSpeedup(cfg Config) (*KernelSpeedup, error) {
	cpus := SpeedupCPUs()
	if cpus == 0 {
		return nil, fmt.Errorf("bench: speedup cell needs ≥4 usable CPUs, have NumCPU=%d GOMAXPROCS=%d",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	cfg = cfg.withDefaults()
	ng := SkewedCliqueGraph(cfg)
	run := func(c core.Config) (time.Duration, int64, error) {
		r, err := TimedMULE(ng.G, SkewedAlpha, cfg, c)
		if err != nil {
			return 0, 0, err
		}
		if !r.Finished {
			return 0, 0, fmt.Errorf("bench: speedup cell %+v exceeded its budget", c)
		}
		return r.Elapsed, r.Cliques, nil
	}
	if _, _, err := run(core.Config{}); err != nil { // warm-up
		return nil, err
	}
	serial, cliques, err := run(core.Config{})
	if err != nil {
		return nil, err
	}
	topLevel, topCliques, err := run(core.Config{Workers: cpus, Parallel: core.ParallelTopLevel})
	if err != nil {
		return nil, err
	}
	workSteal, wsCliques, err := run(core.Config{Workers: cpus})
	if err != nil {
		return nil, err
	}
	if wsCliques != cliques || topCliques != cliques {
		return nil, fmt.Errorf("bench: speedup cell clique counts diverge: serial=%d toplevel=%d worksteal=%d",
			cliques, topCliques, wsCliques)
	}
	sp := &KernelSpeedup{
		Workload:    ng.Name,
		Workers:     cpus,
		SerialNs:    float64(serial.Nanoseconds()),
		TopLevelNs:  float64(topLevel.Nanoseconds()),
		WorkStealNs: float64(workSteal.Nanoseconds()),
		Cliques:     cliques,
	}
	if workSteal > 0 {
		sp.Speedup = float64(serial.Nanoseconds()) / float64(workSteal.Nanoseconds())
	}
	return sp, nil
}

// KernelReport is the on-disk trajectory: one run per measured kernel state,
// oldest first.
type KernelReport struct {
	Note string      `json:"note"`
	Runs []KernelRun `json:"runs"`
}

const kernelReportNote = "MULE kernel benchmark trajectory; append one labeled run per performance-relevant PR (cmd/experiments -exp kernel -kernel-out BENCH_kernel.json -kernel-label \"...\")"

// kernelWorkload is one input of the kernel sweep.
type kernelWorkload struct {
	ng      NamedGraph
	alpha   float64
	minSize int
}

// kernelWorkloads returns the sweep inputs: a Barabási–Albert power-law
// graph at a low threshold (deep search tree, long candidate lists), the
// skewed hub workload (one dominant subtree, hub rows ≫ tails — the shape
// the adaptive gallop intersection targets), a collaboration-like graph, a
// LARGE-MULE run exercising the size-pruned path and the CSR prefilter,
// and the dense G(n,p) cell at a high α (the shape the bit-row probe
// targets — this is the cell the CI -kernel-diff smoke run relies on to
// exercise the probe).
func kernelWorkloads(cfg Config) []kernelWorkload {
	cfg = cfg.withDefaults()
	baN := 5000
	if cfg.Quick {
		baN = 800
	}
	ba := NamedGraph{baName(baN), gen.BA(baN, cfg.Seed)}
	collab := NamedGraph{"ca-GrQc", gen.CollaborationLikeN(1310, 7245, cfg.Seed)}
	if !cfg.Quick {
		collab = NamedGraph{"ca-GrQc", gen.CollaborationLike(cfg.Seed)}
	}
	return []kernelWorkload{
		{ba, 0.001, 0},
		{SkewedCliqueGraph(cfg), SkewedAlpha, 0},
		{collab, 0.0005, 0},
		{ba, 0.001, 3},
		{DenseGNPGraph(cfg), DenseAlpha, 0},
	}
}

// kernelEngines returns the engine grid: serial plus both parallel engines
// at the configured worker count (cfg.Workers when ≥ 2, else min(NumCPU, 4)
// to keep the numbers comparable across differently sized CI machines).
func kernelEngines(cfg Config) []core.Config {
	w := cfg.Workers
	if w < 2 {
		w = runtime.NumCPU()
		if w > 4 {
			w = 4
		}
	}
	engines := []core.Config{{}}
	if w >= 2 {
		engines = append(engines,
			core.Config{Workers: w, Parallel: core.ParallelWorkStealing},
			core.Config{Workers: w, Parallel: core.ParallelTopLevel})
	}
	return engines
}

func engineLabel(c core.Config) string {
	if c.Workers <= 1 {
		return "serial"
	}
	return c.Parallel.String()
}

// measureTimed times runOnce into e. With once set it performs a single
// timed iteration (CI smoke mode, equivalent in spirit to -benchtime=1x);
// otherwise it defers to testing.Benchmark's auto-scaling.
func measureTimed(e *KernelEntry, runOnce func(), once bool) {
	if once {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		runOnce()
		e.NsPerOp = float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		e.AllocsPerOp = int64(after.Mallocs - before.Mallocs)
		e.BytesPerOp = int64(after.TotalAlloc - before.TotalAlloc)
	} else {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runOnce()
			}
		})
		e.NsPerOp = float64(r.NsPerOp())
		e.AllocsPerOp = r.AllocsPerOp()
		e.BytesPerOp = r.AllocedBytesPerOp()
	}
}

// measureKernel benchmarks one (workload, engine) cell.
func measureKernel(g *uncertain.Graph, alpha float64, coreCfg core.Config, once bool) (KernelEntry, error) {
	var stats core.Stats
	var runErr error
	ctx := context.Background()
	e := KernelEntry{
		Alpha:   alpha,
		MinSize: coreCfg.MinSize,
		Engine:  engineLabel(coreCfg),
		Workers: maxInt(coreCfg.Workers, 1),
	}
	measureTimed(&e, func() {
		// Measured through the public query API (runEnumeration), so the
		// trajectory reflects what callers of mule.NewQuery actually pay —
		// including the per-node cancellation accounting.
		stats, runErr = runEnumeration(ctx, g, alpha, coreCfg)
	}, once)
	if runErr != nil {
		return e, runErr
	}
	e.Cliques = stats.Emitted
	e.Calls = stats.Calls
	return e, nil
}

// extensionKernelCells returns the extension-path cells of the sweep: a
// small biclique enumeration, an η-truss decomposition, a
// component-sharded clique run, a densest-subgraph run, a k-center
// clustering, an η-core decomposition and a quasi-clique enumeration, all
// measured through the public
// prepared-query API so the trajectory catches regressions on the §6 query
// surface (run-control polling included). The cells are sized to stay
// 1-CPU-friendly per the trajectory-comparability convention (the sharded
// cell's two shard slots idle-wait rather than saturate). KernelEntry
// reuse: Alpha
// carries the miner's threshold (α / η / γ), Cliques the emitted results
// (bicliques / edges / vertices / sets), Calls the charged work units
// (search nodes / support checks / η-degree recomputes).
func extensionKernelCells(cfg Config, once bool) ([]KernelEntry, error) {
	ctx := context.Background()
	out := make([]KernelEntry, 0, 7)

	bg := AffinityBipartite(200, 150, 6, cfg.Seed)
	be := KernelEntry{Workload: "biclique-aff200x150", Alpha: 0.2, Engine: "serial", Workers: 1}
	var bStats mule.BicliqueStats
	var runErr error
	bq, err := mule.NewBicliqueQuery(bg, be.Alpha, mule.WithSides(2, 2))
	if err != nil {
		return nil, err
	}
	measureTimed(&be, func() { bStats, runErr = bq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: biclique kernel cell: %w", runErr)
	}
	be.Cliques = bStats.Emitted
	be.Calls = bStats.Calls
	out = append(out, be)

	tg := CommunityGraph(150, 8, 7, cfg.Seed)
	te := KernelEntry{Workload: "truss-community150", Alpha: 0.5, Engine: "serial", Workers: 1}
	var tStats mule.TrussStats
	tq, err := mule.NewTrussQuery(tg, te.Alpha)
	if err != nil {
		return nil, err
	}
	measureTimed(&te, func() { tStats, runErr = tq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: truss kernel cell: %w", runErr)
	}
	te.Cliques = tStats.Emitted
	te.Calls = tStats.Checks
	out = append(out, te)

	// Component-sharded clique enumeration over the BA-800 workload: the
	// same graph and α as the quick sweep's first cell, but driven through
	// WithShards(2), so the trajectory catches regressions in the shard
	// driver itself (lazy component extraction, reorder buffer, stats
	// folding) rather than only in the per-shard engines.
	sg := gen.BA(800, cfg.Seed)
	se := KernelEntry{Workload: "sharded-ba800", Alpha: 0.001, Engine: "sharded", Workers: 2}
	var sStats mule.Stats
	sq, err := mule.NewQuery(sg, se.Alpha, mule.WithShards(2))
	if err != nil {
		return nil, err
	}
	measureTimed(&se, func() { sStats, runErr = sq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: sharded kernel cell: %w", runErr)
	}
	se.Cliques = sStats.Emitted
	se.Calls = sStats.Calls
	out = append(out, se)

	// Most-probable densest subgraph over the BA-800 workload: the peel
	// walks every vertex and the scoring DP re-reads every edge per
	// candidate, so this cell covers both new udensest phases. Alpha is
	// unused by the miner; Cliques carries candidates emitted, Calls the
	// charged peel steps.
	dg := gen.BA(800, cfg.Seed)
	de := KernelEntry{Workload: "densest-ba800", Engine: "serial", Workers: 1}
	var dStats mule.DensestStats
	dq, err := mule.NewDensestQuery(dg)
	if err != nil {
		return nil, err
	}
	measureTimed(&de, func() { dStats, runErr = dq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: densest kernel cell: %w", runErr)
	}
	de.Cliques = dStats.Emitted
	de.Calls = dStats.PeelSteps
	out = append(out, de)

	// k-center clustering over the community workload: seeding plus Lloyd
	// refinement exercise the reliability-Dijkstra sweep kernel. Cliques
	// carries clusters emitted, Calls the charged center sweeps.
	cg := CommunityGraph(150, 8, 7, cfg.Seed)
	ce := KernelEntry{Workload: "cluster-community150", Engine: "serial", Workers: 1}
	var cStats mule.ClusterStats
	cq, err := mule.NewClusterQuery(cg, mule.WithCenters(8))
	if err != nil {
		return nil, err
	}
	measureTimed(&ce, func() { cStats, runErr = cq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: cluster kernel cell: %w", runErr)
	}
	ce.Cliques = cStats.Emitted
	ce.Calls = cStats.Sweeps
	out = append(out, ce)

	// η-core decomposition over the BA-800 workload at the benchmark's η:
	// thousands of Poisson-binomial η-degree recomputes as the min-peel
	// walks every vertex. Cliques carries vertices emitted, Calls the
	// charged recomputes.
	og := gen.BA(800, cfg.Seed)
	oe := KernelEntry{Workload: "core-ba800", Alpha: 0.3, Engine: "serial", Workers: 1}
	var oStats mule.CoreStats
	oq, err := mule.NewCoreQuery(og, oe.Alpha)
	if err != nil {
		return nil, err
	}
	measureTimed(&oe, func() { oStats, runErr = oq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: core kernel cell: %w", runErr)
	}
	oe.Cliques = oStats.Emitted
	oe.Calls = oStats.Recomputes
	out = append(out, oe)

	// Maximal expected γ-quasi-cliques of at least four vertices over the
	// community workload. Alpha carries γ, Cliques the maximal sets, Calls
	// the search nodes.
	qg := CommunityGraph(150, 8, 7, cfg.Seed)
	qe := KernelEntry{Workload: "quasi-community150", Alpha: 0.7, Engine: "serial", Workers: 1}
	var qStats mule.QuasiStats
	qq, err := mule.NewQuasiQuery(qg, mule.WithGamma(qe.Alpha), mule.WithMinSize(4))
	if err != nil {
		return nil, err
	}
	measureTimed(&qe, func() { qStats, runErr = qq.Run(ctx, nil) }, once)
	if runErr != nil {
		return nil, fmt.Errorf("bench: quasi kernel cell: %w", runErr)
	}
	qe.Cliques = qStats.Emitted
	qe.Calls = qStats.Calls
	out = append(out, qe)
	return out, nil
}

// runKernel executes the kernel benchmark sweep, renders the table, and —
// when cfg.KernelOut is set — merges the run into the trajectory file.
func runKernel(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	run := KernelRun{
		Label:     cfg.KernelLabel,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     cfg.Quick,
		Once:      cfg.KernelOnce,
	}
	if run.Label == "" {
		run.Label = "unlabeled " + run.Date
	}
	t := NewTable(fmt.Sprintf("Kernel benchmark (%s): ns/op, allocs/op, B/op", run.Label),
		"workload", "α", "minsize", "engine", "workers", "ns/op", "allocs/op", "B/op", "cliques", "calls")
	for _, wl := range kernelWorkloads(cfg) {
		for _, ec := range kernelEngines(cfg) {
			ec.MinSize = wl.minSize
			e, err := measureKernel(wl.ng.G, wl.alpha, ec, cfg.KernelOnce)
			if err != nil {
				return fmt.Errorf("kernel %s/%s: %w", wl.ng.Name, engineLabel(ec), err)
			}
			e.Workload = wl.ng.Name
			run.Entries = append(run.Entries, e)
			t.Add(wl.ng.Name, fmt.Sprintf("%g", wl.alpha), fmt.Sprintf("%d", wl.minSize),
				e.Engine, fmt.Sprintf("%d", e.Workers),
				fmt.Sprintf("%.0f", e.NsPerOp), fmt.Sprintf("%d", e.AllocsPerOp),
				fmt.Sprintf("%d", e.BytesPerOp), fmt.Sprintf("%d", e.Cliques),
				fmt.Sprintf("%d", e.Calls))
		}
	}
	extCells, err := extensionKernelCells(cfg, cfg.KernelOnce)
	if err != nil {
		return err
	}
	for _, e := range extCells {
		run.Entries = append(run.Entries, e)
		t.Add(e.Workload, fmt.Sprintf("%g", e.Alpha), "0", e.Engine, fmt.Sprintf("%d", e.Workers),
			fmt.Sprintf("%.0f", e.NsPerOp), fmt.Sprintf("%d", e.AllocsPerOp),
			fmt.Sprintf("%d", e.BytesPerOp), fmt.Sprintf("%d", e.Cliques),
			fmt.Sprintf("%d", e.Calls))
	}
	if SpeedupCPUs() > 0 {
		sp, err := MeasureSpeedup(cfg)
		if err != nil {
			return err
		}
		run.Speedup = sp
		fmt.Fprintf(w, "speedup cell (%s, %d workers): serial %.0fms toplevel %.0fms worksteal %.0fms (%.2fx)\n",
			sp.Workload, sp.Workers, sp.SerialNs/1e6, sp.TopLevelNs/1e6, sp.WorkStealNs/1e6, sp.Speedup)
	} else {
		fmt.Fprintf(w, "speedup cell skipped: need ≥4 usable CPUs, have NumCPU=%d GOMAXPROCS=%d\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if cfg.KernelDiff != "" {
		if err := diffAgainstTrajectory(cfg, run, w); err != nil {
			return err
		}
	}
	if cfg.KernelOut == "" {
		return nil
	}
	if err := MergeKernelRun(cfg.KernelOut, run); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "kernel run %q appended to %s\n", run.Label, cfg.KernelOut)
	return err
}

// KernelRegression is one cell that got slower than the baseline run by
// more than the tolerance.
type KernelRegression struct {
	Workload string
	Engine   string
	MinSize  int
	OldNs    float64
	NewNs    float64
	Pct      float64 // percent slower than the baseline
}

// DiffKernelRuns compares cur against base cell-by-cell (matching workload,
// alpha, minsize, engine, and worker count; other cells are skipped) and
// returns the cells whose ns/op regressed by more than tolerancePct.
func DiffKernelRuns(base, cur KernelRun, tolerancePct float64) []KernelRegression {
	type cellKey struct {
		workload string
		alpha    float64
		minSize  int
		engine   string
		workers  int
	}
	baseline := make(map[cellKey]KernelEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseline[cellKey{e.Workload, e.Alpha, e.MinSize, e.Engine, e.Workers}] = e
	}
	var regs []KernelRegression
	for _, e := range cur.Entries {
		b, ok := baseline[cellKey{e.Workload, e.Alpha, e.MinSize, e.Engine, e.Workers}]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		pct := 100 * (e.NsPerOp - b.NsPerOp) / b.NsPerOp
		if pct > tolerancePct {
			regs = append(regs, KernelRegression{
				Workload: e.Workload, Engine: e.Engine, MinSize: e.MinSize,
				OldNs: b.NsPerOp, NewNs: e.NsPerOp, Pct: pct,
			})
		}
	}
	return regs
}

// baselineLabelMark tags trajectory rows pinned as CI diff baselines. When
// any row carries it, only the newest such row may anchor a -kernel-diff.
const baselineLabelMark = "ci-baseline"

// LatestComparableRun returns the baseline run in rep for diffing cur
// against. A candidate must be measured the same way as cur — same Quick and
// Once modes AND the same machine class (OS, architecture, CPU count):
// absolute ns/op across machine classes is not comparable, so a trajectory
// recorded on a developer container never produces false regressions against
// a differently-sized CI runner.
//
// Rows whose label contains "ci-baseline" are pinned baselines, and only the
// NEWEST of them is ever consulted: older pinned rows are stale by
// definition (re-baselining supersedes them), and silently falling back to
// one after a runner-class drift would diff today's numbers against a
// months-old machine profile. If the newest pinned row is incomparable the
// diff reports "no comparable run" instead — the trajectory needs a fresh
// baseline for the new runner class, not a quieter gate. Trajectories with
// no pinned rows keep the legacy behavior: newest comparable row wins.
func LatestComparableRun(rep KernelReport, cur KernelRun) (KernelRun, bool) {
	comparable := func(r KernelRun) bool {
		return r.Quick == cur.Quick && r.Once == cur.Once &&
			r.GOOS == cur.GOOS && r.GOARCH == cur.GOARCH && r.NumCPU == cur.NumCPU
	}
	for i := len(rep.Runs) - 1; i >= 0; i-- {
		r := rep.Runs[i]
		if r.Label == cur.Label || !strings.Contains(r.Label, baselineLabelMark) {
			continue // a re-measure must not diff against itself
		}
		if comparable(r) {
			return r, true
		}
		return KernelRun{}, false // newest pinned baseline is incomparable: no fallback
	}
	for i := len(rep.Runs) - 1; i >= 0; i-- {
		r := rep.Runs[i]
		if r.Label != cur.Label && comparable(r) {
			return r, true
		}
	}
	return KernelRun{}, false
}

// diffAgainstTrajectory flags >tolerance ns/op regressions of run against
// the latest comparable row of the trajectory at cfg.KernelDiff — the CI
// smoke job's guard rail. A missing or incomparable trajectory only notes
// the fact; a regression is an error.
func diffAgainstTrajectory(cfg Config, run KernelRun, w io.Writer) error {
	rep, err := LoadKernelReport(cfg.KernelDiff)
	if err != nil {
		return err
	}
	base, ok := LatestComparableRun(rep, run)
	if !ok {
		_, err := fmt.Fprintf(w, "kernel diff: no comparable prior run in %s (quick=%v once=%v), skipping\n",
			cfg.KernelDiff, run.Quick, run.Once)
		return err
	}
	tol := cfg.KernelDiffPct
	if tol <= 0 {
		tol = 25
	}
	regs := DiffKernelRuns(base, run, tol)
	if len(regs) == 0 {
		_, err := fmt.Fprintf(w, "kernel diff: no cell slower than %q by >%g%% ns/op\n", base.Label, tol)
		return err
	}
	for _, r := range regs {
		fmt.Fprintf(w, "kernel diff: REGRESSION %s/%s minsize=%d: %.0f → %.0f ns/op (+%.1f%%)\n",
			r.Workload, r.Engine, r.MinSize, r.OldNs, r.NewNs, r.Pct)
	}
	return fmt.Errorf("bench: %d kernel cell(s) regressed >%g%% ns/op vs %q", len(regs), tol, base.Label)
}

// LoadKernelReport reads a trajectory file; a missing file yields an empty
// report.
func LoadKernelReport(path string) (KernelReport, error) {
	var rep KernelReport
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return rep, nil
}

// MergeKernelRun appends run to the trajectory at path, replacing any
// existing run with the same label so a re-measured PR overwrites itself
// instead of duplicating.
func MergeKernelRun(path string, run KernelRun) error {
	rep, err := LoadKernelReport(path)
	if err != nil {
		return err
	}
	rep.Note = kernelReportNote
	kept := rep.Runs[:0]
	for _, r := range rep.Runs {
		if r.Label != run.Label {
			kept = append(kept, r)
		}
	}
	rep.Runs = append(kept, run)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
