package graphio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

type scannedEdge struct {
	U, V int
	P    float64
}

func collectScan(t *testing.T, data []byte) (Header, []scannedEdge) {
	t.Helper()
	var edges []scannedEdge
	h, err := ScanEdges(bytes.NewReader(data), func(u, v int, p float64) error {
		edges = append(edges, scannedEdge{u, v, p})
		return nil
	})
	if err != nil {
		t.Fatalf("ScanEdges: %v", err)
	}
	return h, edges
}

func testGraph(t *testing.T) *uncertain.Graph {
	t.Helper()
	b := uncertain.NewBuilder(6)
	for _, e := range []struct {
		u, v int
		p    float64
	}{{0, 1, 0.5}, {1, 2, 0.25}, {3, 4, 0.75}} {
		if err := b.AddEdge(e.u, e.v, e.p); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestScanEdgesAllFormats(t *testing.T) {
	g := testGraph(t)
	writers := map[string]func(*bytes.Buffer){
		"text":   func(b *bytes.Buffer) { _ = WriteText(b, g) },
		"binary": func(b *bytes.Buffer) { _ = WriteBinary(b, g) },
		"json":   func(b *bytes.Buffer) { _ = WriteJSON(b, g) },
	}
	for name, write := range writers {
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			write(&buf)
			data := buf.Bytes()
			label := name
			if compress {
				var zbuf bytes.Buffer
				zw := gzip.NewWriter(&zbuf)
				_, _ = zw.Write(data)
				_ = zw.Close()
				data = zbuf.Bytes()
				label += "+gzip"
			}
			h, edges := collectScan(t, data)
			if h.Vertices != 6 || !h.Declared || h.Edges != 3 {
				t.Errorf("%s: header %+v", label, h)
			}
			want := []scannedEdge{{0, 1, 0.5}, {1, 2, 0.25}, {3, 4, 0.75}}
			if !reflect.DeepEqual(edges, want) {
				t.Errorf("%s: edges %v, want %v", label, edges, want)
			}
		}
	}
}

func TestScanEdgesInfersVertexCount(t *testing.T) {
	h, edges := collectScan(t, []byte("0 4 0.5\n"))
	if h.Vertices != 5 || h.Declared || h.Edges != 1 || len(edges) != 1 {
		t.Fatalf("header %+v edges %v", h, edges)
	}
}

func TestScanEdgesCallbackErrorPropagates(t *testing.T) {
	sentinel := errors.New("stop here")
	_, err := ScanEdges(bytes.NewReader([]byte("0 1 0.5\n1 2 0.5\n")), func(u, v int, p float64) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the callback's own error", err)
	}
	if errors.Is(err, ErrFormat) {
		t.Fatal("callback error must not be wrapped in ErrFormat")
	}
}

func TestScanEdgesMalformedInputs(t *testing.T) {
	cases := map[string][]byte{
		"bad fields":           []byte("0 1\n"),
		"bad vertex":           []byte("a b 0.5\n"),
		"bad probability":      []byte("0 1 x\n"),
		"negative endpoint":    []byte("-1 2 0.5\n"),
		"bad directive":        []byte("vertices\n"),
		"negative count":       []byte("vertices -1\n"),
		"endpoint beyond":      []byte("vertices 2\n0 5 0.5\n"),
		"gzip garbage":         append([]byte{0x1f, 0x8b}, []byte("not gzip at all")...),
		"binary truncated":     []byte("UGRF\x01\x00"),
		"binary bad version":   append([]byte("UGRF"), bytes.Repeat([]byte{0xff}, 20)...),
		"json unknown field":   []byte(`{"vertices": 2, "edgez": []}`),
		"json negative count":  []byte(`{"vertices": -1, "edges": []}`),
		"json truncated":       []byte(`{"vertices": 2, "edges": [{"u":0,`),
		"json edge beyond":     []byte(`{"vertices": 1, "edges": [{"u":0,"v":3,"p":0.5}]}`),
		"json edges not array": []byte(`{"edges": 7}`),
	}
	for name, data := range cases {
		_, err := ScanEdges(bytes.NewReader(data), func(u, v int, p float64) error { return nil })
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error %v does not wrap ErrFormat", name, err)
		}
	}
}

// TestBinaryHeaderClampedAgainstInputSize is the corrupt-header guard: a
// header declaring billions of edges over a tiny seekable input must fail up
// front (wrapping ErrFormat) instead of looping over missing records.
func TestBinaryHeaderClampedAgainstInputSize(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("UGRF")
	_ = binary.Write(&buf, binary.LittleEndian, binaryVersion)
	_ = binary.Write(&buf, binary.LittleEndian, uint64(10))    // n
	_ = binary.Write(&buf, binary.LittleEndian, uint64(1<<32)) // m: absurd for a 24-byte file
	_, err := ScanEdges(bytes.NewReader(buf.Bytes()), func(u, v int, p float64) error { return nil })
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	if _, rerr := ReadBinary(bytes.NewReader(buf.Bytes())); rerr == nil {
		t.Fatal("ReadBinary accepted a header larger than the input")
	}
}

// TestBinaryHeaderVertexClamp: a vertex count wildly beyond what the edge
// count could touch is rejected before any allocation sized by it.
func TestBinaryHeaderVertexClamp(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("UGRF")
	_ = binary.Write(&buf, binary.LittleEndian, binaryVersion)
	_ = binary.Write(&buf, binary.LittleEndian, uint64(1<<30)) // n: ~1 billion vertices
	_ = binary.Write(&buf, binary.LittleEndian, uint64(0))     // m: no edges
	_, err := ScanEdges(bytes.NewReader(buf.Bytes()), func(u, v int, p float64) error { return nil })
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

// nonSeeker hides any Seek method so the spool replay path is exercised.
type nonSeeker struct{ r *bytes.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestLoadNonSeekableUsesSpool(t *testing.T) {
	g := testGraph(t)
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return WriteText(b, g) },
		func(b *bytes.Buffer) error { return WriteBinary(b, g) },
		func(b *bytes.Buffer) error { return WriteJSON(b, g) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(nonSeeker{bytes.NewReader(buf.Bytes())})
		if err != nil {
			t.Fatalf("Load(non-seekable): %v", err)
		}
		if !reflect.DeepEqual(got.Edges(), g.Edges()) {
			t.Fatal("non-seekable load mismatch")
		}
	}
}

// buildComponentFile writes a multi-component graph to disk and returns the
// path plus the in-memory original.
func buildComponentFile(t *testing.T, rng *rand.Rand, dir string) (string, *uncertain.Graph) {
	t.Helper()
	parts := 2 + rng.Intn(5)
	var n int
	sizes := make([]int, parts)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(8)
		n += sizes[i]
	}
	b := uncertain.NewBuilder(n)
	base := 0
	for _, sz := range sizes {
		for j := 1; j < sz; j++ {
			if err := b.AddEdge(base+j, base+rng.Intn(j), 0.1+0.9*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		base += sz
	}
	g := b.Build()
	path := filepath.Join(dir, "comps.ugb")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestScanComponentBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	dir := t.TempDir()
	for trial := 0; trial < 15; trial++ {
		path, g := buildComponentFile(t, rng, dir)
		for _, maxEdges := range []int{0, 1, 3, 1 << 20} {
			var covered []int
			totalEdges := 0
			err := ScanComponentBatches(path, maxEdges, func(batch *uncertain.Graph, newToOld []int) error {
				if batch.NumVertices() != len(newToOld) {
					t.Fatalf("batch shape %d vs map %d", batch.NumVertices(), len(newToOld))
				}
				for _, e := range batch.Edges() {
					ou, ov := newToOld[e.U], newToOld[e.V]
					p, ok := g.Prob(ou, ov)
					if !ok || p != e.P {
						t.Fatalf("batch edge {%d,%d} does not map back", e.U, e.V)
					}
					totalEdges++
				}
				covered = append(covered, newToOld...)
				return nil
			})
			if err != nil {
				t.Fatalf("trial %d maxEdges %d: %v", trial, maxEdges, err)
			}
			if totalEdges != g.NumEdges() {
				t.Fatalf("trial %d maxEdges %d: %d edges covered, want %d", trial, maxEdges, totalEdges, g.NumEdges())
			}
			// Components are laid out contiguously here, so batch order by
			// smallest member means covered must be exactly 0..n-1 in order.
			if len(covered) != g.NumVertices() {
				t.Fatalf("trial %d: covered %d vertices, want %d", trial, len(covered), g.NumVertices())
			}
			for i, v := range covered {
				if v != i {
					t.Fatalf("trial %d maxEdges %d: covered[%d] = %d", trial, maxEdges, i, v)
				}
			}
		}
	}
}

func TestScanComponentBatchesCallbackError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	path, _ := buildComponentFile(t, rng, dir)
	sentinel := errors.New("abort batches")
	err := ScanComponentBatches(path, 1, func(batch *uncertain.Graph, newToOld []int) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want callback error", err)
	}
}

func TestScanComponentBatchesMissingFile(t *testing.T) {
	err := ScanComponentBatches(filepath.Join(t.TempDir(), "nope.ug"), 0, func(*uncertain.Graph, []int) error { return nil })
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("got %v, want not-exist", err)
	}
}

// FuzzScanEdges: whatever bytes arrive — malformed text, truncated binary,
// gzip garbage, half a JSON document — the streaming reader must never
// panic, and every failure must wrap the typed ErrFormat sentinel.
func FuzzScanEdges(f *testing.F) {
	g := mustGraph()
	var text, bin, js bytes.Buffer
	_ = WriteText(&text, g)
	_ = WriteBinary(&bin, g)
	_ = WriteJSON(&js, g)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(bin.Bytes())
	_ = zw.Close()
	f.Add(text.Bytes())
	f.Add(bin.Bytes())
	f.Add(js.Bytes())
	f.Add(gz.Bytes())
	f.Add(bin.Bytes()[:len(bin.Bytes())/2])
	f.Add([]byte{0x1f, 0x8b, 0x00})
	f.Add([]byte("vertices 3\n0 1 0.5\n"))
	f.Add([]byte(`{"vertices": 2, "edges": [{"u":0,"v":1,"p":0.5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ScanEdges(bytes.NewReader(data), func(u, v int, p float64) error { return nil })
		if err != nil && !errors.Is(err, ErrFormat) {
			t.Fatalf("error %v does not wrap ErrFormat", err)
		}
	})
}

func mustGraph() *uncertain.Graph {
	b := uncertain.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.5)
	_ = b.AddEdge(2, 3, 0.25)
	return b.Build()
}
