package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// loadChunks loads data as ReadAny does, with the chunk count forced to w
// and no size floor, so that even a few lines are cut into w chunks.
func loadChunks(data []byte, w int) (*uncertain.Graph, Header, error) {
	return buildGraph(bytes.NewReader(data), scanAny, w, 0)
}

// loadChecked loads data through the checked sequence: a non-seekable input
// is parsed whole, every edge validated, in its count pass.
func loadChecked(data []byte) (*uncertain.Graph, Header, error) {
	return buildGraph(nonSeeker{bytes.NewReader(data)}, scanAny, 1, 0)
}

// loadResult is what a load built, its probabilities as bits, or its error.
type loadResult struct {
	N      int
	Rows   [][]rawEdge
	Header Header
	Err    string
}

func resultOf(g *uncertain.Graph, h Header, err error) loadResult {
	if err != nil {
		return loadResult{Err: err.Error()}
	}
	n, rows := csrOf(g)
	return loadResult{N: n, Rows: rows, Header: h}
}

// FuzzLoadChunks: cut into 1–4 chunks, any input loads into the arrays and
// header the checked sequence builds, or fails with its error text.
func FuzzLoadChunks(f *testing.F) {
	var text bytes.Buffer
	_ = WriteText(&text, randomGraph(12, 0.4, 5))
	for _, seed := range []string{
		text.String(),
		strings.ReplaceAll(text.String(), "\n", "\r\n"),
		"# comment\n0 1 0.5\n\n1 2 0.25\n  # indented\n2 3 1\n",
		"vertices 5\n0 4 0.5\n1 2 0.5\nvertices 9\n3 8 0.5\n",
		"vertices 3\n0 1 0.5\n1 2 0.5\n2 5 0.5\n",
		"0 1 zz\n0 x 0.5\n",
		"0 1 1.5\n2 2 0.5\n",
		"0 1 NaN\n0 1 0.5\n",
		"0 1 0.5\n1 2 0.5\n2 3 0.5\n1 0 0.5\n",
		"0 1 0.5\n1\t2 0.5\u0085\n+2 3 0.5\n0000000003 4 0.5\n",
		"0 1 0.5\n1 2\n2 3 0.5 extra\n",
		"vertices 9223372036854775807\n0 1 0.5\n",
		"0 1 0.5\n1 2 0.5",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := resultOf(loadChecked(data))
		for w := 1; w <= 4; w++ {
			if got := resultOf(loadChunks(data, w)); !reflect.DeepEqual(got, want) {
				t.Fatalf("input %q in %d chunks:\ngot  %+v\nwant %+v", data, w, got, want)
			}
		}
	})
}

// TestLoadErrorPrecedence: a load reports the input's first fault, the one
// the checked sequence meets, not a later one that a count pass skipping
// probabilities, or a chunk, would meet first.
func TestLoadErrorPrecedence(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct{ data, want string }{
		{"0 1 zz\n0 x 0.5\n", `graphio: line 1: bad probability "zz": graphio: malformed input`},
		{"0 1 1.5\n2 2 0.5\n", "uncertain: probability 1.5: probability outside (0,1]"},
		{"0 1 NaN\n0 1 0.5\n", "uncertain: probability NaN: probability outside (0,1]"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("g%d.ug", i))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil || err.Error() != tc.want {
			t.Errorf("LoadFile(%q): got %v, want %s", tc.data, err, tc.want)
		}
		for w := 2; w <= 4; w++ {
			if _, _, err := loadChunks([]byte(tc.data), w); err == nil || err.Error() != tc.want {
				t.Errorf("%q in %d chunks: got %v, want %s", tc.data, w, err, tc.want)
			}
		}
	}
}

// TestLoadChunksMatchOneChunk: a DBLP-like text file, and variants of it
// with faults, load into the same arrays, header or error in 1–4 chunks as
// through the checked sequence.
func TestLoadChunksMatchOneChunk(t *testing.T) {
	scale := 0.06 // the oneshot-ingest benchmark's 41k vertices and 159k edges
	if testing.Short() {
		scale = 0.01
	}
	var text bytes.Buffer
	if err := WriteText(&text, gen.DBLPLike(scale, 7)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(text.String(), "\n")
	third, half := len(lines)/3, len(lines)/2
	variant := func(edit func(l []string)) []byte {
		l := append([]string(nil), lines...)
		edit(l)
		return []byte(strings.Join(l, ""))
	}
	inputs := map[string][]byte{
		"whole": text.Bytes(),
		"two faults": variant(func(l []string) {
			l[half] = "3 x 0.5\n"
			l[third] = "3 4 zz\n"
		}),
		"duplicate edge": variant(func(l []string) { l[half] = l[third] }),
		"directive too small": variant(func(l []string) {
			l[third] = "vertices 100\n" + l[third]
		}),
		"directive overridden": variant(func(l []string) {
			l[third] = "vertices 100\n" + l[third]
			l[half] = "vertices 50000\n" + l[half]
		}),
	}
	for name, data := range inputs {
		want := resultOf(loadChecked(data))
		if name == "whole" && want.Err != "" {
			t.Fatalf("%s: %s", name, want.Err)
		}
		for w := 1; w <= 4; w++ {
			if got := resultOf(loadChunks(data, w)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s in %d chunks: got error %q, want %q", name, w, got.Err, want.Err)
			}
		}
	}
}

// TestLoadMatchesFromEdges: a text load builds the graph uncertain.FromEdges
// builds from the same edge list, in any number of chunks, also when the
// lines come in an order that leaves rows to sort.
func TestLoadMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		density := rng.Float64()
		var edges []uncertain.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < density {
					edges = append(edges, uncertain.Edge{U: u, V: v, P: 0.05 + 0.95*rng.Float64()})
				}
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			for i := range edges {
				if rng.Intn(2) == 0 {
					edges[i].U, edges[i].V = edges[i].V, edges[i].U
				}
			}
		}
		want, err := uncertain.FromEdges(n, edges)
		if err != nil {
			t.Fatalf("FromEdges: %v", err)
		}
		text := fmt.Appendf(nil, "vertices %d\n", n)
		for _, e := range edges {
			text = appendEdgeLine(text, e.U, e.V, e.P)
		}
		got, err := Load(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) || got.NumVertices() != n {
			t.Fatalf("trial %d: Load and FromEdges differ", trial)
		}
		for w := 2; w <= 4; w++ {
			got, _, err := loadChunks(text, w)
			if err != nil {
				t.Fatalf("trial %d, %d chunks: %v", trial, w, err)
			}
			if !reflect.DeepEqual(got.Edges(), want.Edges()) || got.NumVertices() != n {
				t.Fatalf("trial %d, %d chunks: Load and FromEdges differ", trial, w)
			}
		}
	}
}

// TestLoadInfersVertexCount: without a vertices directive a load has max
// endpoint + 1 vertices, whichever chunk holds the largest endpoint.
func TestLoadInfersVertexCount(t *testing.T) {
	for _, data := range []string{
		"0 5 0.5\n1 2 0.5\n2 3 0.5\n3 4 0.5\n",
		"1 2 0.5\n2 3 0.5\n3 4 0.5\n0 5 0.5\n",
	} {
		for w := 1; w <= 4; w++ {
			g, h, err := loadChunks([]byte(data), w)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != 6 || h.Vertices != 6 || h.Declared || h.Edges != 4 {
				t.Fatalf("%q in %d chunks: %d vertices, header %+v", data, w, g.NumVertices(), h)
			}
		}
	}
}

// TestLoadAllocatesLinearly: a text load allocates O(W·n + m) bytes for W
// chunks even when every edge raises the largest endpoint, as on the path
// 0–1–…–(n−1) written in ascending order; a degree array regrown to each new
// maximum would copy ~2n² = 5 GB here.
//
// The finished CSR takes csr = 4(n+1) + 24m bytes. A degree array's
// power-of-two capacities, from 256 entries up, sum to less than twice the
// last, itself less than 2n: under 16n bytes. With one chunk, the load adds
// that array and, per pass, a 64 KiB read buffer and a 64 KiB scan buffer:
// under 3·csr, which leaves room for -race builds, which allocate more.
//
// With W chunks, each chunk's degree array spans its endpoints only, so it
// also stays under 16n bytes while counting, and its padding to n vertices
// adds at most 4n. FromDegrees adds 4n bytes for every chunk but the last,
// and each chunk reads each pass through its own 64 KiB scan buffer: under
// csr + W·(24n + 2·64 KiB), which the test doubles for -race builds.
func TestLoadAllocatesLinearly(t *testing.T) {
	const n = 50_000
	var text []byte
	for u := 0; u+1 < n; u++ {
		text = appendEdgeLine(text, u, u+1, 0.5)
	}
	csr := uint64(4*(n+1) + 24*(n-1))
	for _, tc := range []struct {
		chunks int
		bound  uint64
	}{
		{1, 3 * csr},
		{maxScanWorkers, 2 * (csr + maxScanWorkers*(24*n+2*64<<10))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, _, err := buildGraph(bytes.NewReader(text), scanAny, tc.chunks, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != n {
			t.Fatalf("%d vertices, want %d", g.NumVertices(), n)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d chunks: %d bytes for a %d-byte CSR", tc.chunks, got, csr)
		if got > tc.bound {
			t.Errorf("%d chunks: allocated %d bytes, bound %d", tc.chunks, got, tc.bound)
		}
	}
}

// vertexCountCase is an input of a few bytes in one format, and the vertex
// count it loads with, or -1 when it must fail.
type vertexCountCase struct {
	format, data string
	vertices     int
}

// vertexCountCases are TestVertexCountsChecked's inputs. Every count a row
// must reject, declared or inferred, lies past 2m + 2²⁰ for m edges or past
// the int32 IDs, or an endpoint lies past the declared count; the rows that
// load sit on the boundary.
func vertexCountCases() []vertexCountCase {
	binaryFile := func(n, m uint64, edges ...[2]uint32) string {
		var buf bytes.Buffer
		buf.WriteString("UGRF")
		_ = binary.Write(&buf, binary.LittleEndian, binaryVersion)
		_ = binary.Write(&buf, binary.LittleEndian, n)
		_ = binary.Write(&buf, binary.LittleEndian, m)
		for _, e := range edges {
			_ = binary.Write(&buf, binary.LittleEndian, e)
			_ = binary.Write(&buf, binary.LittleEndian, 0.5)
		}
		return buf.String()
	}
	const (
		limit = 1 << 20 // 2m + 2²⁰ at m = 0
		far   = 1 << 22 // an endpoint whose arrays take 16 MiB
	)
	return []vertexCountCase{
		{"text", "vertices 9223372036854775807\n", -1},
		{"text", fmt.Sprintf("vertices %d\n", limit+1), -1},
		{"text", fmt.Sprintf("vertices %d\n", limit), limit},
		{"text", fmt.Sprintf("vertices %d\n0 1 0.5\n", limit+3), -1},
		{"text", fmt.Sprintf("vertices %d\n0 1 0.5\n", limit+2), limit + 2},
		{"text", fmt.Sprintf("0 %d 0.5\n", limit+2), -1},
		{"text", fmt.Sprintf("0 %d 0.5\n", limit+1), limit + 2},
		{"text", fmt.Sprintf("vertices 6\n0 %d 0.5\n", far), -1},
		{"text", "0 2147483647 0.5\n", -1}, // the largest ID: 2³¹ vertices
		{"json", `{"vertices": 9223372036854775807, "edges": []}`, -1},
		{"json", fmt.Sprintf(`{"vertices": %d, "edges": []}`, limit+1), -1},
		{"json", fmt.Sprintf(`{"vertices": %d, "edges": [{"u": 0, "v": 1, "p": 0.5}]}`, limit+2), limit + 2},
		{"json", fmt.Sprintf(`{"vertices": 6, "edges": [{"u": 0, "v": %d, "p": 0.5}]}`, far), -1},
		{"binary", binaryFile(1<<40, 0), -1},
		{"binary", binaryFile(limit+1, 0), -1},
		{"binary", binaryFile(limit+2, 1, [2]uint32{0, 1}), limit + 2},
		{"binary", binaryFile(6, 1, [2]uint32{0, far}), -1},
	}
}

// TestVertexCountsChecked: in every format, a vertex count the edges cannot
// justify (over 2m + 2²⁰ for m edges, or past the int32 IDs), whether
// declared or inferred from the largest endpoint, and an endpoint beyond the
// declared count, fail with an error before anything of their size is
// allocated; the largest plausible count still loads. Every input is a few
// bytes. Before the check, the huge counts panicked the loader, and the
// others allocated arrays of their count or endpoint. The component batches
// fail on the same inputs with LoadFile's error, allocating as little.
func TestVertexCountsChecked(t *testing.T) {
	const limit = 1 << 20
	// allocated runs load and reports the bytes it allocated.
	allocated := func(load func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cases := vertexCountCases()
	for _, tc := range cases {
		readers := map[string]io.Reader{
			"seekable":     strings.NewReader(tc.data),
			"non-seekable": nonSeeker{bytes.NewReader([]byte(tc.data))},
		}
		for kind, r := range readers {
			var g *uncertain.Graph
			var err error
			bytes := allocated(func() { g, err = Load(r) })
			switch {
			case tc.vertices < 0 && err == nil:
				t.Errorf("%s %q (%s): loaded %d vertices", tc.format, tc.data, kind, g.NumVertices())
			case tc.vertices < 0 && bytes > 1<<20:
				t.Errorf("%s %q (%s): allocated %d bytes to fail", tc.format, tc.data, kind, bytes)
			case tc.vertices >= 0 && err != nil:
				t.Errorf("%s %q (%s): %v", tc.format, tc.data, kind, err)
			case tc.vertices >= 0 && g.NumVertices() != tc.vertices:
				t.Errorf("%s %q (%s): %d vertices, want %d", tc.format, tc.data, kind, g.NumVertices(), tc.vertices)
			}
		}
	}
	dir := t.TempDir()
	for i, tc := range cases {
		if tc.vertices >= 0 {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("g%d", i))
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, want := LoadFile(path)
		if !errors.Is(want, ErrFormat) {
			t.Errorf("LoadFile %s %q: %v, want an ErrFormat", tc.format, tc.data, want)
			continue
		}
		var err error
		bytes := allocated(func() {
			err = ScanComponentBatches(path, 0, func(*uncertain.Graph, []int) error { return nil })
		})
		switch {
		case err == nil || err.Error() != want.Error():
			t.Errorf("ScanComponentBatches %s %q: got %v, want %v", tc.format, tc.data, err, want)
		case bytes > 1<<20:
			t.Errorf("ScanComponentBatches %s %q: allocated %d bytes to fail", tc.format, tc.data, bytes)
		}
	}
	for _, tc := range []struct {
		data     string
		vertices int
	}{
		{"bipartite 9223372036854775807 1\n", -1},
		{"bipartite 4611686018427387904 4611686018427387904\n0 0 0.5\n", -1},
		{fmt.Sprintf("bipartite %d 0\n", limit+1), -1},
		{fmt.Sprintf("bipartite %d 0\n", limit), limit},
		{fmt.Sprintf("bipartite %d 4\n0 0 0.5\n", limit-1), -1},
		{fmt.Sprintf("bipartite %d 4\n0 0 0.5\n", limit-2), limit + 2},
	} {
		var g *ubiclique.Bipartite
		var err error
		bytes := allocated(func() { g, err = ReadBipartiteText(strings.NewReader(tc.data)) })
		switch {
		case tc.vertices < 0 && err == nil:
			t.Errorf("bipartite %q: loaded %d + %d vertices", tc.data, g.NumLeft(), g.NumRight())
		case tc.vertices < 0 && bytes > 1<<20:
			t.Errorf("bipartite %q: allocated %d bytes to fail", tc.data, bytes)
		case tc.vertices >= 0 && err != nil:
			t.Errorf("bipartite %q: %v", tc.data, err)
		case tc.vertices >= 0 && g.NumLeft()+g.NumRight() != tc.vertices:
			t.Errorf("bipartite %q: %d + %d vertices, want %d", tc.data, g.NumLeft(), g.NumRight(), tc.vertices)
		}
	}
}
