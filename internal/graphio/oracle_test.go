package graphio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// scanTextOracle is the text scanner as it was written first: a string per
// line, strings.TrimSpace and strings.Fields. It is kept as the reference
// the in-place tokenizer of scanText must agree with on every input —
// accepted edges, header, error text and ErrFormat wrapping alike.
func scanTextOracle(r io.Reader, fn EdgeFunc) (Header, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	h := Header{Vertices: -1}
	maxV := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "vertices" {
			if len(fields) != 2 {
				return h, fmt.Errorf("graphio: line %d: malformed vertices directive: %w", line, ErrFormat)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return h, fmt.Errorf("graphio: line %d: bad vertex count %q: %w", line, fields[1], ErrFormat)
			}
			h.Vertices, h.Declared = v, true
			continue
		}
		if len(fields) != 3 {
			return h, fmt.Errorf("graphio: line %d: want 'u v p', got %q: %w", line, text, ErrFormat)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return h, fmt.Errorf("graphio: line %d: bad vertex %q: %w", line, fields[0], ErrFormat)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return h, fmt.Errorf("graphio: line %d: bad vertex %q: %w", line, fields[1], ErrFormat)
		}
		p, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return h, fmt.Errorf("graphio: line %d: bad probability %q: %w", line, fields[2], ErrFormat)
		}
		if u < 0 || v < 0 || u > maxEndpoint || v > maxEndpoint {
			return h, fmt.Errorf("graphio: line %d: vertex out of range: %w", line, ErrFormat)
		}
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
		h.Edges++
		if err := fn(u, v, p); err != nil {
			return h, err
		}
	}
	if err := sc.Err(); err != nil {
		return h, fmt.Errorf("graphio: %v: %w", err, ErrFormat)
	}
	if !h.Declared {
		h.Vertices = maxV + 1
	}
	if maxV >= h.Vertices {
		return h, fmt.Errorf("graphio: edge endpoint %d exceeds declared vertex count %d: %w", maxV, h.Vertices, ErrFormat)
	}
	return h, nil
}

// rawEdge is an edge with its probability as IEEE-754 bits, so NaN and -0
// compare exactly.
type rawEdge struct {
	U, V  int
	PBits uint64
}

type textScanResult struct {
	Edges  []rawEdge
	Header Header
	Err    string
	Format bool
}

func runTextScan(scan func(io.Reader, EdgeFunc) (Header, error), data []byte) textScanResult {
	var res textScanResult
	h, err := scan(bytes.NewReader(data), func(u, v int, p float64) error {
		res.Edges = append(res.Edges, rawEdge{u, v, math.Float64bits(p)})
		return nil
	})
	res.Header = h
	if err != nil {
		res.Err, res.Format = err.Error(), errors.Is(err, ErrFormat)
	}
	return res
}

// FuzzScanTextOracle: on arbitrary bytes the in-place tokenizer and the
// strings.Fields oracle deliver the same edges (bit for bit), the same
// Header, and the same error text with the same ErrFormat wrapping.
func FuzzScanTextOracle(f *testing.F) {
	var text bytes.Buffer
	_ = WriteText(&text, mustGraph())
	for _, seed := range []string{
		text.String(),
		"vertices 3\n0\t1\t0.5\n1\t\t2 0.25\n",
		"vertices 3\r\n0 1 0.5\r\n1 2 0.25\r\n",
		"+7 -0 0.5\n",
		"  # indented comment\n\t#tab comment\n0 1 0.5\n#\n",
		"0\u00a01\u00a00.5\n",
		"0\u00851 0.5\u0085\n",
		"\u2003\u20030 1\u20030.5\u2003\n",
		"\u00a0# comment after a no-break space\n0 1 0.5\n",
		"vertices\n",
		"vertices 1 2\n",
		"vertices x\n",
		"0 1 0.12345678901234567\n1 2 1.0000000000000001e-05\n2 3 0.29999999999999999\n",
		"0 1 5e-324\n0 2 NaN\n0 3 -0\n",
		"0 1\n",
		"0 1 0.5 extra\n",
		"a b 0.5\n",
		"0 1 x\n",
		"-1 2 0.5\n",
		"0 1 0.5\xff\n",
		"0\xc2 1 0.5\n",
		"0 1 0.5\xe2\x80\n",
		"0 1 0.5\xc2\xc2\xa0\n",
		"0 1 0.5\xed\xa0\x80\n",
		" \t \n\n\v\f\n",
		"vertices 2\n0 5 0.5\n",
		"99999999999999999999 0 0.5\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runTextScan(scanText, data)
		want := runTextScan(scanTextOracle, data)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q:\ntokenizer = %+v\noracle    = %+v", data, got, want)
		}
	})
}

// csrOf returns the graph's vertex count and rows, probabilities as bits.
func csrOf(g *uncertain.Graph) (int, [][]rawEdge) {
	rows := make([][]rawEdge, g.NumVertices())
	for u := range rows {
		nbrs, probs := g.Adjacency(u)
		for i, v := range nbrs {
			rows[u] = append(rows[u], rawEdge{u, int(v), math.Float64bits(probs[i])})
		}
	}
	return g.NumVertices(), rows
}

// TestLoadFileMatchesOracle: every file format loads into the CSR that the
// oracle parse of the text form, fed through uncertain.FromEdges, builds —
// same rows, same neighbor order, same probability bits.
func TestLoadFileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dir := t.TempDir()
	for trial := 0; trial < 8; trial++ {
		n := 50 + rng.Intn(400)
		b := uncertain.NewBuilder(n + rng.Intn(3)) // sometimes isolated trailing vertices
		for e := 0; e < 4*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				// Decimal and full-precision probabilities both round-trip.
				p := []float64{0.1, 0.3, 0.7, 1, rng.Float64()*0.999 + 0.001}[rng.Intn(5)]
				_ = b.UpsertEdge(u, v, p)
			}
		}
		g := b.Build()

		var text bytes.Buffer
		if err := WriteText(&text, g); err != nil {
			t.Fatal(err)
		}
		var edges []uncertain.Edge
		h, err := scanTextOracle(bytes.NewReader(text.Bytes()), func(u, v int, p float64) error {
			edges = append(edges, uncertain.Edge{U: u, V: v, P: p})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := uncertain.FromEdges(h.Vertices, edges)
		if err != nil {
			t.Fatal(err)
		}
		wantN, wantRows := csrOf(ref)

		for _, name := range []string{"g.ug", "g.ugb", "g.ug.gz", "g.ugb.gz"} {
			path := filepath.Join(dir, name)
			if err := SaveFile(path, g); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFile(path)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if gotN, gotRows := csrOf(loaded); gotN != wantN || !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("trial %d %s: loaded CSR differs from the oracle's", trial, name)
			}
		}
	}
}

// bandFile writes the graph on n vertices that joins every vertex to the
// next width vertices — its rows arrive sorted and its largest endpoint
// rises one vertex at a time, the worst case for a degree array regrown per
// new maximum — and returns the path.
func bandFile(t *testing.T, dir, name string, n, width int) string {
	t.Helper()
	b := uncertain.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v <= u+width && v < n; v++ {
			if err := b.AddEdge(u, v, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(dir, name)
	if err := SaveFile(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFileAllocsFlatInEdges: loading allocates per load, never per line,
// record or row. Two band graphs on the same 10,001 vertices, one with 10k
// edges and one with ~100k, take the same number of allocations in every
// format. compress/flate allocates a few Huffman link tables per deflate
// block, so for gzip the count left after subtracting two plain
// decompressions of the file (LoadFile parses it twice) must stay flat.
func TestLoadFileAllocsFlatInEdges(t *testing.T) {
	dir := t.TempDir()
	for _, ext := range []string{".ug", ".ugb", ".ug.gz"} {
		sparse := bandFile(t, dir, "sparse"+ext, 10001, 1)
		dense := bandFile(t, dir, "dense"+ext, 10001, 10)
		allocs := func(path string) float64 {
			load := testing.AllocsPerRun(3, func() {
				if _, err := LoadFile(path); err != nil {
					t.Fatal(err)
				}
			})
			if strings.HasSuffix(path, ".gz") {
				load -= 2 * testing.AllocsPerRun(3, func() { gunzip(t, path) })
			}
			return load
		}
		a, b := allocs(sparse), allocs(dense)
		t.Logf("%s: %v allocations at 10k edges, %v at ~100k", ext, a, b)
		if b > a {
			t.Errorf("%s: allocations grew from %v to %v with 10× the edges", ext, a, b)
		}
	}
}

// gunzip decompresses the file at path into a fixed buffer, reading it the
// way ScanEdges does: through a 64 KiB bufio.Reader.
func gunzip(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReaderSize(f, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	var buf [32 * 1024]byte
	for {
		if _, err := zr.Read(buf[:]); err == io.EOF {
			return
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanComponentBatchesPasses: the batch scanner parses its input once to
// label components and count degrees, then once per batch.
func TestScanComponentBatchesPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	path, g := buildComponentFile(t, rng, t.TempDir())
	for _, maxEdges := range []int{0, 1, 3, 1 << 20} {
		passes, batches, edges := 0, 0, 0
		scan := func(fn EdgeFunc) (Header, error) {
			passes++
			return scanFile(path, fn)
		}
		err := scanComponentBatches(scan, maxEdges, func(batch *uncertain.Graph, _ []int) error {
			batches++
			edges += batch.NumEdges()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if edges != g.NumEdges() {
			t.Fatalf("maxEdges %d: batches hold %d edges, want %d", maxEdges, edges, g.NumEdges())
		}
		if passes != 1+batches {
			t.Errorf("maxEdges %d: %d parses for %d batches, want %d", maxEdges, passes, batches, 1+batches)
		}
	}
}

// TestScanComponentBatchesInputChanged: a file rewritten between the
// labelling pass and a batch's fill fails with ErrFormat or a
// non-replayable-scan error rather than yielding a corrupt batch.
func TestScanComponentBatchesInputChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	path, _ := buildComponentFile(t, rng, dir)
	other := filepath.Join(dir, "other.ug")
	if err := os.WriteFile(other, []byte("0 1 0.5\n0 2 0.5\n1 2 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	passes := 0
	scan := func(fn EdgeFunc) (Header, error) {
		passes++
		if passes > 1 {
			return scanFile(other, fn)
		}
		return scanFile(path, fn)
	}
	err := scanComponentBatches(scan, 0, func(*uncertain.Graph, []int) error { return nil })
	if err == nil {
		t.Fatal("a batch built from a changed input was accepted")
	}
	if errors.Is(err, ErrFormat) {
		return
	}
	if !strings.Contains(err.Error(), "passes disagree") {
		t.Fatalf("got %v, want ErrFormat or a non-replayable-scan error", err)
	}
}

// TestReadBipartiteTextTokenizer: the bipartite reader shares the text
// tokenizer, so tabs, CRLF and Unicode white space separate its fields too,
// and its error messages quote the trimmed line.
func TestReadBipartiteTextTokenizer(t *testing.T) {
	g, err := ReadBipartiteText(strings.NewReader("\u00a0bipartite\t2 3\r\n  # comment\n0\u20032 0.5\r\n1 0 +1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLeft() != 2 || g.NumRight() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d×%d with %d edges", g.NumLeft(), g.NumRight(), g.NumEdges())
	}
	_, err = ReadBipartiteText(strings.NewReader("bipartite 2 3\n \t0 1\u00a0\n"))
	if want := `graphio: line 2: want 'l r p', got "0 1"`; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}
