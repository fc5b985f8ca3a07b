package graphio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// goldenProbs are probabilities whose shortest decimal form differs from the
// 17-digit one the writers use, decimal fractions that are not exact in
// binary, and the extremes of (0, 1] down to the smallest subnormal.
var goldenProbs = []float64{
	1, 0.5, 0.1, 0.3, 1.0 / 3, 0.1 + 0.2, 1e-05, 5e-324, 2.2250738585072014e-308,
	0.9999999999999999, 1e-300, 0.001, 7e-10, 0.875, 0.123456789012345678,
}

// goldenIDs cross the widths where decimal and varint-style encodings
// change length; the graphs declare more vertices than their edges touch.
var goldenIDs = []int{0, 1, 2, 9, 10, 99, 100, 255, 256, 1000, 65535, 65536, 69998}

func goldenGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	b := uncertain.NewBuilder(70000)
	k := 0
	for i, u := range goldenIDs {
		for j := i + 1; j < len(goldenIDs); j += 1 + i%3 {
			if err := b.AddEdge(u, goldenIDs[j], goldenProbs[k%len(goldenProbs)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	return b.Build()
}

func goldenBipartite(t *testing.T) *ubiclique.Bipartite {
	t.Helper()
	b := ubiclique.NewBuilder(300, 70000)
	k := 0
	for i, l := range goldenIDs[:9] {
		for j := i % 2; j < len(goldenIDs); j += 2 {
			if err := b.AddEdge(l, goldenIDs[j], goldenProbs[k%len(goldenProbs)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	return b.Build()
}

// TestWritersGolden pins the writers' output byte for byte: testdata holds
// the golden graphs as the original fmt.Fprintf and binary.Write encoders
// wrote them. ugen, SaveFile and every file a benchmark or test writes go
// through these writers.
func TestWritersGolden(t *testing.T) {
	g, bg := goldenGraph(t), goldenBipartite(t)
	for name, write := range map[string]func(*bytes.Buffer) error{
		"golden.ug":  func(b *bytes.Buffer) error { return WriteText(b, g) },
		"golden.ugb": func(b *bytes.Buffer) error { return WriteBinary(b, g) },
		"golden.ubg": func(b *bytes.Buffer) error { return WriteBipartiteText(b, bg) },
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: writer output differs from the golden file (%d vs %d bytes)", name, got.Len(), len(want))
		}
	}
}

// TestWritersAllocationFree: encoding an edge allocates nothing, so writing
// a graph costs the same handful of allocations whatever its size.
func TestWritersAllocationFree(t *testing.T) {
	small, large := randomGraph(200, 0.05, 5), randomGraph(2000, 0.05, 5)
	for name, write := range map[string]func(*uncertain.Graph) error{
		"text":   func(g *uncertain.Graph) error { return WriteText(io.Discard, g) },
		"binary": func(g *uncertain.Graph) error { return WriteBinary(io.Discard, g) },
	} {
		allocs := func(g *uncertain.Graph) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := write(g); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); b > a || b > 4 {
			t.Errorf("%s: %v allocations for %d edges, %v for %d", name, a, small.NumEdges(), b, large.NumEdges())
		}
	}
}
