package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/uncertain-graphs/mule/internal/exec"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// These tests target the work-stealing engine specifically. They are meant
// to run under -race (see .github/workflows/ci.yml): StealGranularity 1
// forces every internal node through the deque, maximizing steal traffic
// and handoff interleavings.

// withoutScheduling clears the counters that depend on scheduling (Steals
// and Splits); every other Stats field of a work-stealing run must equal
// the serial run's.
func withoutScheduling(s Stats) Stats {
	s.Steals, s.Splits = 0, 0
	return s
}

// TestWorkStealingMatchesSerialRandom checks, on 50 random graphs, that the
// work-stealing engine emits the identical clique set as the serial driver
// and reports identical Stats apart from Steals and Splits — in plain-MULE
// and LARGE-MULE (MinSize 3) modes, and with every row probed as a bit row
// (these graphs are too small for the adaptive policy to mirror any, and
// at MinSize 3 a frame may probe an X that serial leaves empty).
func TestWorkStealingMatchesSerialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	densities := []float64{0.15, 0.3, 0.5, 0.8}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDyadic(n, densities[trial%len(densities)], rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		for _, base := range []Config{{}, {MinSize: 3}, {Intersect: IntersectBitset}} {
			serial, sstats, err := CollectWith(g, alpha, base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Workers, cfg.StealGranularity = 4, 1
			par, pstats, err := CollectWith(g, alpha, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par, serial) {
				t.Fatalf("trial %d (n=%d, α=%v, %+v): clique sets diverge\nserial = %v\nws     = %v",
					trial, n, alpha, base, serial, par)
			}
			if withoutScheduling(pstats) != sstats {
				t.Fatalf("trial %d (%+v): stats diverge\nserial = %+v\nws     = %+v",
					trial, base, sstats, pstats)
			}
		}
	}
}

// TestStealCounterStorm drives a steal-heavy workload through a private
// executor with far more pool workers than CPUs — the exact interleaving
// where incrementing engine-wide counters from Split/NoteSteal after the
// victim's deque mutex drops would race (two thieves robbing different
// victims increment concurrently). The counters live on slot-private
// wsWorker fields, so this test under -race is the regression guard
// against moving them back onto shared stats; output equivalence and the
// Steals ≥ Splits invariant cross-check that no increment was lost. (The
// container-level steal storm with synthetic frames lives in internal/exec,
// which owns the deques now.)
func TestStealCounterStorm(t *testing.T) {
	x := exec.New(16)
	defer x.Close()
	rng := rand.New(rand.NewSource(409))
	g := randomDyadic(44, 0.55, rng)
	serial := mustCollect(t, g, 0.0625, Config{})
	var steals int64
	for round := 0; round < 6; round++ {
		// The visitor yields on every emission so the surplus pool workers
		// actually get scheduled to thieve on a single-CPU box (a run that
		// never yields executes its whole tree before any thief wakes).
		var got [][]int
		stats, err := EnumerateWith(g, 0.0625, func(c []int, _ float64) bool {
			cp := make([]int, len(c))
			copy(cp, c)
			got = append(got, cp)
			runtime.Gosched()
			return true
		}, Config{Workers: 16, StealGranularity: 1, Exec: x})
		if err != nil {
			t.Fatal(err)
		}
		canonicalize(got)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("round %d: steal-storm run diverged from serial", round)
		}
		if stats.Steals < stats.Splits {
			t.Fatalf("round %d: %d splits but only %d steals (every split is a steal)",
				round, stats.Splits, stats.Steals)
		}
		steals += stats.Steals
	}
	if steals == 0 {
		t.Fatal("storm exercised no steals across 6 steal-greedy rounds")
	}
}

// TestSwallowedEmissionNotCounted pins the parallel emission accounting: a
// slot's emission that reaches the visitor counts in Emitted even when the
// visitor stops the run, and one that arrives after another slot latched
// the stop is swallowed without being counted — so a limit-10 visitor
// never sees Stats.Emitted = 11.
func TestSwallowedEmissionNotCounted(t *testing.T) {
	g := randomDyadic(4, 1, rand.New(rand.NewSource(1)))
	var seen int
	ctl := NewRunControl(context.Background(), 0)
	s := &wsShared{ctl: ctl, visit: func([]int, float64) bool {
		seen++
		return false
	}}
	root := &enumerator{g: g, alpha: 0.5, identity: true, ctl: ctl}
	var stats Stats
	slot := root.workerClone(&stats, s)
	defer slot.releasePooled()
	slot.emit([]int32{0, 1, 2}, 0.5)
	if seen != 1 || stats.Emitted != 1 || stats.MaxCliqueSize != 3 || !ctl.stop.Load() {
		t.Fatalf("stopping emission: seen %d, stats %+v, stop %v", seen, stats, ctl.stop.Load())
	}
	other := root.workerClone(&stats, s)
	defer other.releasePooled()
	other.emit([]int32{0, 1, 2, 3}, 0.25)
	if seen != 1 || stats.Emitted != 1 || stats.MaxCliqueSize != 3 || !other.stopped {
		t.Fatalf("post-stop emission was counted: seen %d, stats %+v", seen, stats)
	}
}

// TestWorkStealingStatsAggregate checks that the merged engine stats keep
// the Steals ≥ Splits invariant and the output stays equivalent under a
// steal-heavy configuration (granularity 1, many workers).
func TestWorkStealingStatsAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g := randomDyadic(42, 0.55, rng)
	serial := mustCollect(t, g, 0.0625, Config{})
	for round := 0; round < 4; round++ {
		got, stats, err := CollectWith(g, 0.0625, Config{Workers: 16, StealGranularity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("round %d: steal-heavy run diverged from serial", round)
		}
		if stats.Steals < stats.Splits {
			t.Fatalf("round %d: %d splits but only %d steals", round, stats.Splits, stats.Steals)
		}
	}
}

// TestWorkStealingInvariants runs the Lemma 6/7 invariant checker inside the
// work-stealing executor, including on frame nodes and split frames.
func TestWorkStealingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	for trial := 0; trial < 10; trial++ {
		g := randomDyadic(4+rng.Intn(16), 0.5, rng)
		cfg := Config{Workers: 4, StealGranularity: 1, CheckInvariants: true}
		if _, _, err := CollectWith(g, 0.25, cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkStealingTinyGraphs covers the degenerate shapes: the empty graph,
// a single vertex, an edgeless graph, and a single edge.
func TestWorkStealingTinyGraphs(t *testing.T) {
	cfg := Config{Workers: 8, StealGranularity: 1}

	empty := uncertain.NewBuilder(0).Build()
	got := mustCollect(t, empty, 0.5, cfg)
	if len(got) != 0 {
		t.Fatalf("empty graph emitted %v", got)
	}

	one := uncertain.NewBuilder(1).Build()
	got = mustCollect(t, one, 0.5, cfg)
	if !reflect.DeepEqual(got, [][]int{{0}}) {
		t.Fatalf("single-vertex graph: got %v, want [[0]]", got)
	}

	edgeless := uncertain.NewBuilder(5).Build()
	got = mustCollect(t, edgeless, 0.5, cfg)
	if len(got) != 5 {
		t.Fatalf("edgeless graph: got %v, want 5 singletons", got)
	}

	b := uncertain.NewBuilder(2)
	_ = b.AddEdge(0, 1, 0.75)
	got = mustCollect(t, b.Build(), 0.5, cfg)
	if !reflect.DeepEqual(got, [][]int{{0, 1}}) {
		t.Fatalf("single-edge graph: got %v, want [[0 1]]", got)
	}
}

// TestWorkStealingWorkersExceedBranches starts far more workers than the
// search has top-level branches; the surplus must park and terminate.
func TestWorkStealingWorkersExceedBranches(t *testing.T) {
	b := uncertain.NewBuilder(3)
	_ = b.AddEdge(0, 1, 0.5)
	_ = b.AddEdge(0, 2, 0.5)
	_ = b.AddEdge(1, 2, 0.5)
	g := b.Build()
	for _, workers := range []int{2, 16, 32} {
		got := mustCollect(t, g, 0.125, Config{Workers: workers, StealGranularity: 1})
		if !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) {
			t.Fatalf("workers=%d: got %v, want [[0 1 2]]", workers, got)
		}
	}
}

// TestWorkStealingEarlyStopMidSteal aborts the enumeration from the visitor
// while steals are in flight: after the first false return, no further
// clique may be delivered, from any worker.
func TestWorkStealingEarlyStopMidSteal(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	g := randomDyadic(48, 0.5, rng)
	for trial := 0; trial < 20; trial++ {
		limit := 1 + trial%7
		var visits, afterStop atomic.Int64
		stopped := false
		stats, err := EnumerateWith(g, 0.0625, func(c []int, p float64) bool {
			if stopped {
				afterStop.Add(1)
			}
			if visits.Add(1) >= int64(limit) {
				stopped = true
				return false
			}
			return true
		}, Config{Workers: 8, StealGranularity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := visits.Load(); got != int64(limit) {
			t.Fatalf("trial %d: visitor called %d times, want exactly %d", trial, got, limit)
		}
		if n := afterStop.Load(); n != 0 {
			t.Fatalf("trial %d: %d visits delivered after the visitor returned false", trial, n)
		}
		if stats.Emitted < int64(limit) {
			t.Fatalf("trial %d: Emitted %d < %d visits", trial, stats.Emitted, limit)
		}
	}
}

// TestStealGranularityVariants checks that the granularity knob changes only
// scheduling, never the result.
func TestStealGranularityVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	g := randomDyadic(36, 0.4, rng)
	want := mustCollect(t, g, 0.125, Config{})
	for _, gran := range []int{1, 2, 8, 64, 1 << 20} {
		got := mustCollect(t, g, 0.125, Config{Workers: 4, StealGranularity: gran})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("granularity %d diverged from serial", gran)
		}
	}
}

// TestStealGranularityValidation rejects a negative granularity.
func TestStealGranularityValidation(t *testing.T) {
	g := uncertain.NewBuilder(2).Build()
	if _, err := EnumerateWith(g, 0.5, nil, Config{Workers: 2, StealGranularity: -1}); err == nil {
		t.Error("negative StealGranularity should fail")
	}
}

// TestExecutorDomainsEquivalent pins down that the executor a run is
// submitted to is pure scheduling policy: on 50 random graphs, the
// work-stealing engine produces output and Stats (apart from Steals and
// Splits) identical to serial whether it runs on the process-wide shared
// pool or on private executors of different widths. This is the
// shared-vs-private half of the equivalence suite; the mule-layer soak
// covers the same property under cross-query contention.
func TestExecutorDomainsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	priv4 := exec.New(4)
	defer priv4.Close()
	priv1 := exec.New(1)
	defer priv1.Close()
	domains := []struct {
		name string
		x    *exec.Executor
	}{
		{"shared", nil}, // Config.Exec nil → exec.Default()
		{"private4", priv4},
		{"private1", priv1},
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(35)
		g := randomDyadic(n, 0.2+0.5*rng.Float64(), rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		serial, sstats, err := CollectWith(g, alpha, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range domains {
			ws := Config{Workers: 4, StealGranularity: 1, Exec: d.x}
			got, gstats, err := CollectWith(g, alpha, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("trial %d (n=%d, α=%v) %s worksteal: clique sets diverge", trial, n, alpha, d.name)
			}
			if withoutScheduling(gstats) != sstats {
				t.Fatalf("trial %d %s worksteal: stats diverge\nserial = %+v\ngot    = %+v",
					trial, d.name, sstats, gstats)
			}
		}
	}
}
