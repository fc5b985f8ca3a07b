package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uncertain-graphs/mule/internal/graphio"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// writeMultiComponentGraph writes a graph with three components — a
// triangle {0,1,2}, an edge {3,4}, and the isolated vertex 5 — so sharded
// and batched runs have real component structure to split on.
func writeMultiComponentGraph(t *testing.T) string {
	t.Helper()
	g, err := uncertain.FromEdges(6, []uncertain.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.9}, {U: 1, V: 2, P: 0.9},
		{U: 3, V: 4, P: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mc.ug")
	if err := graphio.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// sortedLines canonicalizes output for order-insensitive comparison:
// sharded delivery follows component order, the in-memory engine its own.
func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	sort.Strings(lines)
	return lines
}

// TestRunShardedEquivalence proves -shards and -shard-batch produce the
// same result set as a plain run for every unipartite miner.
func TestRunShardedEquivalence(t *testing.T) {
	path := writeMultiComponentGraph(t)
	miners := [][]string{
		{"-alpha", "0.5"},
		{"-mine", "quasi", "-gamma", "0.6", "-minsize", "2"},
		{"-mine", "truss", "-eta", "0.5"},
		{"-mine", "core", "-eta", "0.5"},
	}
	variants := [][]string{
		{"-shards", "1"},
		{"-shards", "2"},
		{"-shards", "auto"},
		{"-shard-batch", "2"},
		{"-shard-batch", "1000"},
		{"-shards", "2", "-shard-batch", "2"},
	}
	for _, miner := range miners {
		base := append([]string{"-in", path, "-quiet"}, miner...)
		var ref bytes.Buffer
		if err := run(context.Background(), base, &ref); err != nil {
			t.Fatalf("%v: %v", base, err)
		}
		want := sortedLines(ref.String())
		for _, v := range variants {
			args := append(append([]string{}, base...), v...)
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if got := sortedLines(out.String()); !equalStrings(got, want) {
				t.Errorf("%v:\ngot  %q\nwant %q", args, got, want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunShardFlagValidation pins the rejected flag combinations.
func TestRunShardFlagValidation(t *testing.T) {
	path := writeMultiComponentGraph(t)
	for _, args := range [][]string{
		{"-in", path, "-shards", "0"},
		{"-in", path, "-shards", "-2"},
		{"-in", path, "-shards", "many"},
		{"-in", path, "-shard-batch", "-1"},
		{"-in", path, "-shard-batch", "4", "-top", "3"},
		{"-in", path, "-mine", "truss", "-eta", "0.5", "-k", "2", "-shard-batch", "4"},
		{"-in", path, "-mine", "core", "-eta", "0.5", "-k", "2", "-shard-batch", "4"},
		{"-in", path, "-mine", "bicliques", "-shard-batch", "4"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestRunShardBatchLimitAndCount proves -limit and -count keep their
// meaning across out-of-core batches.
func TestRunShardBatchLimitAndCount(t *testing.T) {
	path := writeMultiComponentGraph(t)
	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-in", path, "-alpha", "0.5", "-quiet", "-shard-batch", "2", "-count"}, &out); err != nil {
		t.Fatal(err)
	}
	// Three components: the triangle, the edge, and the singleton.
	if got := strings.TrimSpace(out.String()); got != "3" {
		t.Fatalf("batched count: %q, want 3", got)
	}
	out.Reset()
	if err := run(context.Background(),
		[]string{"-in", path, "-alpha", "0.5", "-quiet", "-shard-batch", "2", "-limit", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if lines := sortedLines(out.String()); len(lines) != 2 {
		t.Fatalf("batched limit: got %d lines %q, want 2", len(lines), lines)
	}
}

// TestRunShardBatchFarEndpoint: a 17-byte file naming the largest vertex ID
// fails under -shard-batch with the vertex-count error a plain load gives,
// before anything of that vertex's size is allocated.
func TestRunShardBatchFarEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "far.ug")
	if err := os.WriteFile(path, []byte("0 2147483647 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want := graphio.LoadFile(path)
	if !errors.Is(want, graphio.ErrFormat) || !strings.Contains(want.Error(), "implausible vertex count") {
		t.Fatalf("LoadFile: %v, want an implausible vertex count", want)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-quiet", "-shard-batch", "4"}, &out)
	if err == nil || err.Error() != want.Error() || !errors.Is(err, graphio.ErrFormat) {
		t.Fatalf("-shard-batch 4: got %v, want %v", err, want)
	}
}

// writeCliqueBatchFile streams a binary graph of `comps` disjoint
// k-cliques straight to disk without ever holding more than one edge in
// memory — the generator for the out-of-core test must itself be
// out-of-core, or the test's peak heap would be dominated by setup.
func writeCliqueBatchFile(t *testing.T, path string, comps, k int, p float64) (vertices, edges int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	vertices = comps * k
	edges = comps * k * (k - 1) / 2
	w.WriteString("UGRF")
	binary.Write(w, binary.LittleEndian, uint32(1))
	binary.Write(w, binary.LittleEndian, uint64(vertices))
	binary.Write(w, binary.LittleEndian, uint64(edges))
	for c := 0; c < comps; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				binary.Write(w, binary.LittleEndian, uint32(base+i))
				binary.Write(w, binary.LittleEndian, uint32(base+j))
				binary.Write(w, binary.LittleEndian, p)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return vertices, edges
}

// TestOutOfCoreBigGraph is the acceptance scenario: a ~1.1M-edge
// multi-component graph is mined to completion in component batches with
// peak heap well below the full CSR footprint. The full graph is never
// materialized — generation streams to disk, mining streams from it.
func TestOutOfCoreBigGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("out-of-core acceptance run skipped in -short mode")
	}
	const (
		comps = 40_000
		k     = 8 // 28 edges per component
		prob  = 0.9
	)
	path := filepath.Join(t.TempDir(), "big.ugb")
	vertices, edges := writeCliqueBatchFile(t, path, comps, k, prob)
	if edges < 1_000_000 {
		t.Fatalf("generator produced only %d edges", edges)
	}
	// The in-memory CSR stores each edge twice: int32 neighbor + float64
	// probability per direction, plus the offset array.
	fullCSR := int64(4*(vertices+1)) + int64(edges)*2*(4+8)

	// Keep the collector close to the live set so polled HeapAlloc tracks
	// live bytes, mirroring the GOMEMLIMIT pressure of the CI smoke job.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()

	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				runtime.ReadMemStats(&ms)
				if ha := int64(ms.HeapAlloc); ha > peak.Load() {
					peak.Store(ha)
				}
			}
		}
	}()

	var out bytes.Buffer
	err := run(context.Background(), []string{
		// α below p^C(k,2) = 0.9^28 ≈ 0.052, so each whole K8 is the one
		// α-maximal clique of its component.
		"-in", path, "-alpha", "0.05",
		"-quiet", "-count", "-shard-batch", "100000",
	}, &out)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	// Each k-clique component yields exactly one α-maximal clique.
	if got := strings.TrimSpace(out.String()); got != fmt.Sprint(comps) {
		t.Fatalf("count: %q, want %d", got, comps)
	}
	if p := peak.Load(); p >= fullCSR {
		t.Fatalf("peak heap %d B not below full-CSR footprint %d B — batching is not bounding memory", p, fullCSR)
	}
	t.Logf("mined %d components (%d edges) with peak heap %.1f MiB; full CSR would be %.1f MiB",
		comps, edges, float64(peak.Load())/(1<<20), float64(fullCSR)/(1<<20))
}
