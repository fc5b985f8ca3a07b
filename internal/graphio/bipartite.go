package graphio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/uncertain-graphs/mule/internal/ubiclique"
)

// WriteBipartiteText writes an uncertain bipartite graph in a line-oriented
// text format (extension .ubg):
//
//	# comment
//	bipartite 3 4
//	0 2 0.5
//
// The mandatory "bipartite nL nR" directive fixes the side sizes; edge lines
// are "l r p" with each endpoint 0-based in its own side.
func WriteBipartiteText(w io.Writer, g *ubiclique.Bipartite) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "bipartite %d %d\n", g.NumLeft(), g.NumRight()); err != nil {
		return err
	}
	var line []byte
	for _, e := range g.Edges() {
		line = appendEdgeLine(line[:0], e.L, e.R, e.P)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveBipartiteFile writes an uncertain bipartite graph to path in the
// text format; a trailing ".gz" compresses the output transparently.
func SaveBipartiteFile(path string, g *ubiclique.Bipartite) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := WriteBipartiteText(w, g); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// LoadBipartiteFile reads an uncertain bipartite graph from path
// (conventionally .ubg); gzip streams are decompressed transparently. It is
// a thin wrapper over LoadBipartite.
func LoadBipartiteFile(path string) (*ubiclique.Bipartite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadBipartite(f)
}

// LoadBipartite decodes an uncertain bipartite graph from r — an open file,
// an HTTP request body, a bytes.Reader — decompressing gzip streams
// transparently; no temporary file is involved.
func LoadBipartite(r io.Reader) (*ubiclique.Bipartite, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(2); err == nil && [2]byte(head) == gzipMagic {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graphio: opening gzip stream: %w", err)
		}
		defer zr.Close()
		return ReadBipartiteText(zr)
	}
	return ReadBipartiteText(br)
}

// ReadBipartiteText parses the bipartite text format. The "bipartite nL nR"
// directive must precede every edge line. Lines are tokenized in place by
// the tokenizer the unipartite text format uses (lineFields).
func ReadBipartiteText(r io.Reader) (*ubiclique.Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *ubiclique.Builder
	line := 0
	var lf lineFields
	for sc.Scan() {
		line++
		lf.split(sc.Bytes())
		if lf.n == 0 || lf.field(0)[0] == '#' {
			continue
		}
		if string(lf.field(0)) == "bipartite" {
			if b != nil {
				return nil, fmt.Errorf("graphio: line %d: repeated bipartite directive", line)
			}
			if lf.n != 3 {
				return nil, fmt.Errorf("graphio: line %d: want 'bipartite nL nR'", line)
			}
			nL, err := strconv.Atoi(string(lf.field(1)))
			if err != nil || nL < 0 {
				return nil, fmt.Errorf("graphio: line %d: bad left size %q", line, lf.field(1))
			}
			nR, err := strconv.Atoi(string(lf.field(2)))
			if err != nil || nR < 0 {
				return nil, fmt.Errorf("graphio: line %d: bad right size %q", line, lf.field(2))
			}
			b = ubiclique.NewBuilder(nL, nR)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("graphio: line %d: edge before bipartite directive", line)
		}
		if lf.n != 3 {
			return nil, fmt.Errorf("graphio: line %d: want 'l r p', got %q", line, lf.trimmed())
		}
		l, err := strconv.Atoi(string(lf.field(0)))
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad left vertex %q", line, lf.field(0))
		}
		rr, err := strconv.Atoi(string(lf.field(1)))
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad right vertex %q", line, lf.field(1))
		}
		p, err := strconv.ParseFloat(string(lf.field(2)), 64)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad probability %q", line, lf.field(2))
		}
		if err := b.AddEdge(l, rr, p); err != nil {
			return nil, fmt.Errorf("graphio: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graphio: missing bipartite directive")
	}
	return b.Build(), nil
}
