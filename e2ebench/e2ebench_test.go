package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {99, 0}, {100, p90}, {999, p90}, {1000, p99}, {9999, p99}, {10000, p999},
	} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if lvl := tailLevel(tc.n); lvl != 0 && beyond(tc.n, lvl) < minBeyond {
			t.Errorf("tailLevel(%d) = %d leaves %d samples beyond", tc.n, lvl, beyond(tc.n, lvl))
		}
	}
}

func TestSummarize(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(len(ms) - i) // 1000 … 1, unsorted on purpose
	}
	s := summarize(ms, p99)
	if s.N != 1000 || s.Beyond != 10 || s.TailName != "p99" {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Fatalf("p50 %v p99 %v, want 500.5 and 990.01", s.P50, s.Tail)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Layer: "bench", Start: 0, End: 100},
		// Two children that overlap each other (parallel work): their union
		// [10, 60) covers 50 of the parent, not 30 + 40.
		{ID: 2, Parent: 1, Op: 1, Layer: "core", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Layer: "core", Start: 20, End: 60},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Op: 1, Layer: "mule", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Op: 1, Layer: "mule", Start: 15, End: 25},
		// Set-up spans do not count toward busy time.
		{ID: 6, Op: -1, Layer: "graphio", Start: 200, End: 300},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 40, 4: 30, 5: 10, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	layers, busy := layerTimes(spans)
	if busy != 100 {
		t.Errorf("busy = %d, want 100", busy)
	}
	if layers["core"] != 60 || layers["mule"] != 40 || layers["bench"] != 40 || layers["graphio"] != 0 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestOutputDigest(t *testing.T) {
	// The clique jobs' visitor output, as the reference digest must read it.
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	printClique(w, []int{1, 2, 3}, 0.5)
	printClique(w, []int{4, 5}, 0.25)
	w.Flush()
	if out.String() != "0.5\t1 2 3\n0.25\t4 5\n" {
		t.Fatalf("clique lines %q", out.String())
	}
	a := outputDigest(out.Bytes(), true)
	b := outputDigest([]byte("0.25\t4 5\n0.5\t1 2 3\n"), true)
	if a != b || a.Count != 2 {
		t.Fatalf("line order changed the digest: %+v vs %+v", a, b)
	}
	if ref := setDigest([][]int{{4, 5}, {1, 2, 3}}); ref != a {
		t.Fatalf("vertex-set digest %+v differs from the clique output's %+v", ref, a)
	}
	if c := outputDigest([]byte("0.5\t1 2 3\n0.25\t4 6\n"), true); c == a {
		t.Fatal("a different answer has the same digest")
	}
	if withProb := outputDigest([]byte("0.5\t1 2 3\n0.25\t4 5\n"), false); withProb == a {
		t.Fatal("probabilities did not enter the full-line digest")
	}
}

func TestSplitResponse(t *testing.T) {
	body := []byte(`{"graph":"g","epoch":7,"miner":"cliques","cached":true,"truncated":false,"status":"complete","count":2,"results":[{"vertices":[1,2],"prob":0.5},{"vertices":[3],"prob":1}],"stats":{"Calls":4}}` + "\n")
	head, results, stats, err := splitResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if head.Epoch != 7 || !head.Cached || head.Count != 2 {
		t.Fatalf("head %+v", head)
	}
	if string(results) != `[{"vertices":[1,2],"prob":0.5},{"vertices":[3],"prob":1}]` || string(stats) != `{"Calls":4}` {
		t.Fatalf("results %s stats %s", results, stats)
	}
	// Another field order is an error, not a silently different decode.
	if _, _, _, err := splitResponse([]byte(`{"results":[],"count":0,"epoch":3,"stats":{}}`)); err == nil {
		t.Fatal("a response with results first was accepted")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestSelfTest runs every workload for a handful of operations, untraced
// and traced, and fails on any wrong answer: the benchmark's short mode.
func TestSelfTest(t *testing.T) {
	ops := 12
	if testing.Short() {
		ops = 4
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 60, trace: trace, ops: ops, out: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < int64(ops) {
				t.Fatalf("%s trace=%v: %+v", w.name, trace, res)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v printed %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
				}
			}
		}
	}
}
