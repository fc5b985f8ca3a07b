package bench

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/uncertain-graphs/mule/internal/core"
)

// TestSkewedWorkloadShape pins the property the parallel-scaling experiment
// depends on: the skewed hub workload concentrates nearly all α-maximal
// cliques in the top-level branch of vertex 0, so a parallel run must split
// that one branch to spread the work.
func TestSkewedWorkloadShape(t *testing.T) {
	g := SkewedCliqueGraph(Config{Quick: true, Seed: 1}).G
	total, branch0 := 0, 0
	_, err := core.Enumerate(g, SkewedAlpha, func(c []int, _ float64) bool {
		total++
		if c[0] == 0 {
			branch0++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("skewed workload produced no cliques")
	}
	if share := float64(branch0) / float64(total); share < 0.9 {
		t.Fatalf("top-level branch 0 owns only %.1f%% of %d cliques; workload is not skewed",
			100*share, total)
	}
}

// TestParallelEnginesMatchSerialOnSkewed checks the work-stealing engine
// emits the identical clique set as serial on the scaling workload, at the
// default and the finest granularity, regardless of the machine's core
// count.
func TestParallelEnginesMatchSerialOnSkewed(t *testing.T) {
	g := SkewedCliqueGraph(Config{Quick: true, Seed: 1}).G
	want, _, err := core.CollectWith(g, SkewedAlpha, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []core.Config{
		{Workers: 4},
		{Workers: 4, StealGranularity: 1},
	} {
		got, _, err := core.CollectWith(g, SkewedAlpha, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %+v diverged from serial (%d vs %d cliques)", cfg, len(got), len(want))
		}
	}
}

// TestWorkStealingSpeedup is the acceptance benchmark: on a machine with at
// least 4 cores, the work-stealing engine must be ≥2× faster than serial on
// the skewed workload, with identical output. Skipped on smaller machines, where no
// engine can demonstrate a speedup. The measurement itself lives in
// MeasureSpeedup, the same code path the kernel sweep uses to record the
// `speedup` block of a BENCH_kernel.json row — the gate and the trajectory
// can never drift apart.
func TestWorkStealingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup benchmark in -short mode")
	}
	if SpeedupCPUs() == 0 {
		t.Skipf("need ≥4 usable CPUs for a meaningful speedup, have NumCPU=%d GOMAXPROCS=%d",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	sp, err := MeasureSpeedup(Config{Seed: 1, Budget: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial=%.0fms worksteal=%.0fms (%d cliques, %d workers)",
		sp.SerialNs/1e6, sp.WorkStealNs/1e6, sp.Cliques, sp.Workers)
	if sp.WorkStealNs > sp.SerialNs/2 {
		t.Errorf("work stealing %.0fms is not ≥2x faster than serial %.0fms",
			sp.WorkStealNs/1e6, sp.SerialNs/1e6)
	}
}
