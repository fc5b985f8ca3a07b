package graphio

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// interleavedGraph builds a random graph whose components interleave in
// vertex ID: every vertex joins one of k components at random, the first
// with probability 1/2 so that it holds well over three edges, or stays
// isolated. A random tree over each component's members connects it, and
// the first component gets extra edges.
func interleavedGraph(rng *rand.Rand) *uncertain.Graph {
	n := 30 + rng.Intn(60)
	k := 2 + rng.Intn(5)
	members := make([][]int, k)
	for v := 0; v < n; v++ {
		switch c := rng.Intn(2 * k); {
		case c < k:
			members[0] = append(members[0], v)
		case c < 2*k-1:
			members[c-k+1] = append(members[c-k+1], v)
		}
	}
	seen := map[[2]int]bool{}
	var edges []uncertain.Edge
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			edges = append(edges, uncertain.Edge{U: u, V: v, P: 0.05 + 0.95*rng.Float64()})
		}
	}
	for c, m := range members {
		for j := 1; j < len(m); j++ {
			add(m[j], m[rng.Intn(j)])
		}
		if c == 0 {
			for j := 0; j < len(m); j++ {
				add(m[rng.Intn(len(m))], m[rng.Intn(len(m))])
			}
		}
	}
	g, err := uncertain.FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// shuffledText writes g in the text format with its edge lines in random
// order and each edge's endpoints in random order.
func shuffledText(g *uncertain.Graph, rng *rand.Rand) []byte {
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	text := fmt.Appendf(nil, "vertices %d\n", g.NumVertices())
	for _, e := range edges {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		text = appendEdgeLine(text, e.U, e.V, e.P)
	}
	return text
}

// component is one support component in the file's vertex IDs: its members,
// ascending, and its edges, sorted.
type component struct {
	Members []int
	Edges   []uncertain.Edge
}

// componentsOf returns g's components in ShardByComponent's order, with
// g's vertex v renamed toOld[v] unless toOld is nil.
func componentsOf(g *uncertain.Graph, toOld []int) []component {
	var out []component
	for s := range g.ShardByComponent() {
		c := component{Members: make([]int, len(s.NewToOld))}
		for i, v := range s.NewToOld {
			if toOld != nil {
				v = toOld[v]
			}
			c.Members[i] = v
		}
		for _, e := range s.G.Edges() {
			c.Edges = append(c.Edges, uncertain.Edge{U: c.Members[e.U], V: c.Members[e.V], P: e.P})
		}
		out = append(out, c)
	}
	return out
}

// batchPlan is how many components each batch holds when consecutive
// components are packed greedily into batches of at most maxEdges edges, a
// component larger than that alone, and maxEdges <= 0 puts all in one.
func batchPlan(comps []component, maxEdges int) []int {
	var plan []int
	for start := 0; start < len(comps); {
		end, sum := start+1, len(comps[start].Edges)
		for end < len(comps) && (maxEdges <= 0 || sum+len(comps[end].Edges) <= maxEdges) {
			sum += len(comps[end].Edges)
			end++
		}
		plan = append(plan, end-start)
		start = end
	}
	return plan
}

// collectBatches runs the batch scan and returns the components of every
// batch, in the file's IDs, in batch order, and how many each batch held.
// It fails t if a batch's map is not ascending or does not fit its graph.
func collectBatches(t *testing.T, scan edgeScan, maxEdges int) ([]component, []int, error) {
	var comps []component
	var plan []int
	err := scanComponentBatches(scan, maxEdges, func(batch *uncertain.Graph, newToOld []int) error {
		if batch.NumVertices() != len(newToOld) || !slices.IsSorted(newToOld) {
			t.Fatalf("batch of %d vertices with map %v", batch.NumVertices(), newToOld)
		}
		in := componentsOf(batch, newToOld)
		comps = append(comps, in...)
		plan = append(plan, len(in))
		return nil
	})
	return comps, plan, err
}

// TestScanComponentBatchesMatchShards: on graphs whose components
// interleave in vertex ID, saved as text, as binary and as text with its
// lines shuffled, the batches hold the components of LoadFile's graph in
// ShardByComponent's order, each whole with its probabilities, packed as
// greedily as maxEdges allows. TestScanComponentBatches lays components out
// contiguously, so it cannot tell smallest-member order from file order.
func TestScanComponentBatchesMatchShards(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dir := t.TempDir()
	for trial := 0; trial < 12; trial++ {
		g := interleavedGraph(rng)
		text, bin := filepath.Join(dir, "g.ug"), filepath.Join(dir, "g.ugb")
		shuffled := filepath.Join(dir, "shuffled.ug")
		for _, err := range []error{SaveFile(text, g), SaveFile(bin, g), os.WriteFile(shuffled, shuffledText(g, rng), 0o644)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, path := range []string{text, bin, shuffled} {
			loaded, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := componentsOf(loaded, nil)
			for _, maxEdges := range []int{0, 1, 3, 1 << 20} {
				scan := func(fn EdgeFunc) (Header, error) { return scanFile(path, fn) }
				got, plan, err := collectBatches(t, scan, maxEdges)
				if err != nil {
					t.Fatalf("trial %d %s maxEdges %d: %v", trial, filepath.Base(path), maxEdges, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s maxEdges %d: batches hold\n%v\nwant the shards\n%v", trial, filepath.Base(path), maxEdges, got, want)
				}
				if wantPlan := batchPlan(want, maxEdges); !slices.Equal(plan, wantPlan) {
					t.Fatalf("trial %d %s maxEdges %d: components per batch %v, want %v", trial, filepath.Base(path), maxEdges, plan, wantPlan)
				}
			}
		}
	}
}

// FuzzScanComponentBatches: over any bytes, the batch scan does not panic
// and fails exactly when Load does. When it succeeds, its batches hold the
// components of Load's graph in ShardByComponent's order, so their maps
// partition 0..n−1 by smallest member, and every edge maps back to Load's
// edge with Load's probability.
func FuzzScanComponentBatches(f *testing.F) {
	for _, tc := range vertexCountCases() {
		if tc.vertices < 0 {
			f.Add([]byte(tc.data), int8(0))
		}
	}
	var text, bin bytes.Buffer
	g := interleavedGraph(rand.New(rand.NewSource(7)))
	_ = WriteText(&text, g)
	_ = WriteBinary(&bin, g)
	for _, seed := range [][]byte{
		text.Bytes(),
		bin.Bytes(),
		shuffledText(g, rand.New(rand.NewSource(8))),
		[]byte(strings.ReplaceAll(text.String(), "\n", "\r\n")),
		[]byte("# comment\nvertices 9\n0 5 0.5\n\n2 3 0.25\n  # indented\n5 7 1\n3 8 0.5\n"),
		[]byte("0 1 0.5\n1 2 0.5\n2 0 0.5\n1 0 0.5\n"),
		[]byte("0 0 0.5\n"),
	} {
		for _, maxEdges := range []int8{0, 1, 3} {
			f.Add(seed, maxEdges)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, maxEdges int8) {
		loaded, loadErr := Load(bytes.NewReader(data))
		scan := func(fn EdgeFunc) (Header, error) { return ScanEdges(bytes.NewReader(data), fn) }
		got, plan, err := collectBatches(t, scan, int(maxEdges))
		if (err == nil) != (loadErr == nil) {
			t.Fatalf("input %q, maxEdges %d: batches fail with %v, Load with %v", data, maxEdges, err, loadErr)
		}
		if err != nil {
			return
		}
		want := componentsOf(loaded, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q, maxEdges %d: batches hold\n%v\nwant the shards\n%v", data, maxEdges, got, want)
		}
		if wantPlan := batchPlan(want, int(maxEdges)); !slices.Equal(plan, wantPlan) {
			t.Fatalf("input %q, maxEdges %d: components per batch %v, want %v", data, maxEdges, plan, wantPlan)
		}
	})
}
