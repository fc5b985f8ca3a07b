package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestKernelTrajectoryMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	run1 := KernelRun{Label: "a", Entries: []KernelEntry{{Workload: "w", Engine: "serial", Workers: 1, NsPerOp: 100, AllocsPerOp: 5}}}
	if err := MergeKernelRun(path, run1); err != nil {
		t.Fatal(err)
	}
	run2 := KernelRun{Label: "b", Entries: []KernelEntry{{Workload: "w", Engine: "serial", Workers: 1, NsPerOp: 50, AllocsPerOp: 1}}}
	if err := MergeKernelRun(path, run2); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadKernelReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Label != "a" || rep.Runs[1].Label != "b" {
		t.Fatalf("trajectory = %+v", rep.Runs)
	}
	// Re-measuring a label replaces it in place instead of duplicating.
	run1b := run1
	run1b.Entries[0].NsPerOp = 80
	if err := MergeKernelRun(path, run1b); err != nil {
		t.Fatal(err)
	}
	rep, err = LoadKernelReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[1].Label != "a" || rep.Runs[1].Entries[0].NsPerOp != 80 {
		t.Fatalf("label replacement failed: %+v", rep.Runs)
	}
	if rep.Note == "" {
		t.Fatal("trajectory note not stamped")
	}
	// A missing file is an empty report, not an error.
	empty, err := LoadKernelReport(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(empty.Runs) != 0 {
		t.Fatalf("missing file: %+v, %v", empty, err)
	}
}

func TestKernelWorkloadsAndEngines(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	wls := kernelWorkloads(cfg)
	if len(wls) != 5 {
		t.Fatalf("kernel workloads: %d", len(wls))
	}
	names := map[string]bool{}
	for _, wl := range wls {
		if wl.ng.G.NumVertices() == 0 {
			t.Fatalf("workload %s built empty", wl.ng.Name)
		}
		names[wl.ng.Name] = true
	}
	if !names["skewed-hub"] {
		t.Fatal("kernel sweep must include the skewed hub workload")
	}
	if !names["dense-gnp300"] {
		t.Fatal("kernel sweep must include the dense G(n,p) workload")
	}
	// The dense cell must actually exercise the bit-row probe: its rows
	// have to clear the adaptive mirroring threshold.
	dense := DenseGNPGraph(cfg)
	long := 0
	for u := 0; u < dense.G.NumVertices(); u++ {
		if dense.G.Degree(u) >= 64 {
			long++
		}
	}
	if long < dense.G.NumVertices()/2 {
		t.Fatalf("dense workload has only %d rows of ≥64 neighbors", long)
	}
	engines := kernelEngines(Config{Workers: 4})
	if len(engines) != 2 {
		t.Fatalf("engine grid: %+v", engines)
	}
	if engineLabel(engines[0]) != "serial" || engineLabel(engines[1]) != "worksteal" {
		t.Fatalf("engines %q, %q", engineLabel(engines[0]), engineLabel(engines[1]))
	}
}

func TestDiffKernelRuns(t *testing.T) {
	cell := func(workload, engine string, ns float64) KernelEntry {
		return KernelEntry{Workload: workload, Alpha: 0.01, Engine: engine, Workers: 4, NsPerOp: ns}
	}
	base := KernelRun{Label: "base", Entries: []KernelEntry{
		cell("ba", "serial", 1000), cell("ba", "worksteal", 400), cell("hub", "serial", 2000),
	}}
	cur := KernelRun{Label: "cur", Entries: []KernelEntry{
		cell("ba", "serial", 1200),   // +20%: within a 25% tolerance
		cell("ba", "worksteal", 600), // +50%: regression
		cell("new", "serial", 99999), // no baseline cell: skipped
	}}
	regs := DiffKernelRuns(base, cur, 25)
	if len(regs) != 1 || regs[0].Workload != "ba" || regs[0].Engine != "worksteal" {
		t.Fatalf("DiffKernelRuns = %+v, want the worksteal cell only", regs)
	}
	if regs[0].Pct < 49 || regs[0].Pct > 51 {
		t.Fatalf("regression pct = %v, want ≈50", regs[0].Pct)
	}
	if regs := DiffKernelRuns(base, cur, 60); len(regs) != 0 {
		t.Fatalf("tolerance 60%% should pass, got %+v", regs)
	}
}

func TestLatestComparableRun(t *testing.T) {
	rep := KernelReport{Runs: []KernelRun{
		{Label: "old-full", Quick: false},
		{Label: "old-quick", Quick: true},
		{Label: "smoke", Quick: true, Once: true},
		{Label: "newer-quick", Quick: true},
	}}
	cur := KernelRun{Label: "current", Quick: true}
	base, ok := LatestComparableRun(rep, cur)
	if !ok || base.Label != "newer-quick" {
		t.Fatalf("LatestComparableRun = (%q, %v), want newer-quick", base.Label, ok)
	}
	// A re-measure of the same label must not diff against itself.
	cur = KernelRun{Label: "newer-quick", Quick: true}
	base, ok = LatestComparableRun(rep, cur)
	if !ok || base.Label != "old-quick" {
		t.Fatalf("self-exclusion: got (%q, %v), want old-quick", base.Label, ok)
	}
	if _, ok := LatestComparableRun(rep, KernelRun{Quick: false, Once: true}); ok {
		t.Fatal("no comparable run should report ok=false")
	}
}

func TestLatestComparableRunPinnedBaseline(t *testing.T) {
	mk := func(label string, cpus int) KernelRun {
		return KernelRun{Label: label, Quick: true, Once: true, GOOS: "linux", GOARCH: "amd64", NumCPU: cpus}
	}
	rep := KernelReport{Runs: []KernelRun{
		mk("pr3 ci-baseline (quick+once)", 4),
		mk("pr4 kernel rework", 4),
		mk("pr6 ci-baseline (quick+once)", 4),
		mk("pr6 followup", 4),
	}}
	cur := mk("ci-smoke abc123", 4)
	// The newest pinned baseline anchors the diff — not the newest row, and
	// never an older pinned row.
	base, ok := LatestComparableRun(rep, cur)
	if !ok || base.Label != "pr6 ci-baseline (quick+once)" {
		t.Fatalf("pinned baseline: got (%q, %v), want the pr6 ci-baseline row", base.Label, ok)
	}
	// A pinned baseline from a different machine class must not silently
	// fall back to the stale pr3 row: the gate reports "no comparable run".
	rep.Runs[2] = mk("pr6 ci-baseline (quick+once)", 16)
	if base, ok := LatestComparableRun(rep, cur); ok {
		t.Fatalf("incomparable newest baseline must not fall back, got %q", base.Label)
	}
	// A re-measure of the pinned label itself still diffs against the
	// newest remaining pinned row.
	rep.Runs[2] = mk("pr6 ci-baseline (quick+once)", 4)
	base, ok = LatestComparableRun(rep, mk("pr6 ci-baseline (quick+once)", 4))
	if !ok || base.Label != "pr3 ci-baseline (quick+once)" {
		t.Fatalf("self-exclusion among pinned rows: got (%q, %v)", base.Label, ok)
	}
	// Trajectories without pinned rows keep the legacy newest-comparable
	// behavior (covered further by TestLatestComparableRun).
	legacy := KernelReport{Runs: []KernelRun{mk("a", 4), mk("b", 4)}}
	if base, ok := LatestComparableRun(legacy, cur); !ok || base.Label != "b" {
		t.Fatalf("legacy fallback: got (%q, %v), want b", base.Label, ok)
	}
}

func TestLatestComparableRunMachineClass(t *testing.T) {
	rep := KernelReport{Runs: []KernelRun{
		{Label: "dev-box", Quick: true, GOOS: "linux", GOARCH: "amd64", NumCPU: 1},
	}}
	// Same modes but a different machine class must not match: absolute
	// ns/op across machine classes is not comparable.
	cur := KernelRun{Label: "ci", Quick: true, GOOS: "linux", GOARCH: "amd64", NumCPU: 4}
	if _, ok := LatestComparableRun(rep, cur); ok {
		t.Fatal("cross-machine-class rows must not be compared")
	}
	cur.NumCPU = 1
	if base, ok := LatestComparableRun(rep, cur); !ok || base.Label != "dev-box" {
		t.Fatalf("same-class row not found: (%q, %v)", base.Label, ok)
	}
}

// TestKernelCountGate pins the machine-independent half of the CI gate:
// cliques and search_calls must equal the newest row with the same quick
// flag, whatever its CPU count, once-mode or worker count.
func TestKernelCountGate(t *testing.T) {
	cell := func(workload, engine string, workers int, cliques, calls int64) KernelEntry {
		return KernelEntry{Workload: workload, Alpha: 0.001, Engine: engine, Workers: workers,
			NsPerOp: 1000, Cliques: cliques, Calls: calls}
	}
	rep := KernelReport{Runs: []KernelRun{
		{Label: "old-quick", Quick: true, NumCPU: 4, Entries: []KernelEntry{cell("ba", "serial", 1, 1, 1)}},
		{Label: "newest-full", Quick: false, NumCPU: 2, Entries: []KernelEntry{cell("ba", "serial", 1, 1, 1)}},
		{Label: "newest-quick", Quick: true, NumCPU: 2, Entries: []KernelEntry{
			cell("ba", "serial", 1, 7121, 15705),
			cell("ba", "worksteal", 2, 7121, 15705),
			cell("ba", "toplevel", 2, 7121, 15705), // no longer measured: skipped
		}},
	}}
	cur := KernelRun{Label: "ci-smoke", Quick: true, Once: true, NumCPU: 4, Entries: []KernelEntry{
		cell("ba", "serial", 1, 7121, 15705),
		cell("ba", "worksteal", 4, 7121, 15705), // another worker count: still compared
		cell("new", "serial", 1, 5, 5),          // no baseline cell: skipped
	}}
	base, ok := latestCountBaseline(rep, cur)
	if !ok || base.Label != "newest-quick" {
		t.Fatalf("latestCountBaseline = (%q, %v), want newest-quick", base.Label, ok)
	}
	if _, ok := latestCountBaseline(rep, KernelRun{Label: "newest-full"}); ok {
		t.Fatal("a re-measure of the only full row must find no count baseline")
	}
	if diffs := diffKernelCounts(base, cur); len(diffs) != 0 {
		t.Fatalf("equal counts reported as %+v", diffs)
	}
	cur.Entries[1].Calls = 15704
	cur.Entries[0].Cliques = 7122
	diffs := diffKernelCounts(base, cur)
	if len(diffs) != 2 || diffs[0].cur.Engine != "serial" || diffs[1].base.Calls != 15705 {
		t.Fatalf("diffKernelCounts = %+v, want the serial and worksteal cells", diffs)
	}

	// End to end: the trajectory's only ci-baseline row is on another
	// machine class, so the ns/op half skips, and the count half still fails.
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	pinned := KernelRun{Label: "one-cpu ci-baseline (quick+once)", Quick: true, Once: true, NumCPU: 1}
	for _, r := range []KernelRun{pinned, rep.Runs[2]} {
		if err := MergeKernelRun(path, r); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	err := diffAgainstTrajectory(Config{KernelDiff: path}, cur, &out)
	if err == nil || !strings.Contains(out.String(), "COUNT MISMATCH ba/worksteal") ||
		!strings.Contains(out.String(), "skipping ns/op") {
		t.Fatalf("count mismatch passed the gate: err %v, output:\n%s", err, out.String())
	}
	cur.Entries[0].Cliques, cur.Entries[1].Calls = 7121, 15705
	out.Reset()
	if err := diffAgainstTrajectory(Config{KernelDiff: path}, cur, &out); err != nil {
		t.Fatalf("equal counts failed the gate: %v\n%s", err, out.String())
	}
}
