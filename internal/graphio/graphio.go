// Package graphio reads and writes uncertain graphs in two formats:
//
// Text (extension .ug): line-oriented, human-editable.
//
//	# comment
//	vertices 4
//	0 1 0.5
//	2 3 0.25
//
// The "vertices N" directive is optional; without it the vertex count is
// inferred as max endpoint + 1 (isolated trailing vertices then need the
// directive). Edge lines are "u v p" with 0-based endpoints.
//
// Binary (extension .ugb): "UGRF" magic, format version, then fixed-width
// little-endian records — compact and fast for the larger Table 1 graphs.
//
// JSON (extension .json): {"vertices": N, "edges": [{"u","v","p"}, …]} for
// interchange with external tooling.
//
// Any format gzip-compresses transparently with a ".gz" suffix, and LoadFile
// sniffs compression and format from content rather than trusting the
// extension. Uncertain bipartite graphs (internal/ubiclique) have their own
// text format (extension .ubg) with a "bipartite nL nR" directive.
package graphio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// WriteText writes g in the text format, edges sorted by (U,V). Each line
// is encoded into one reused buffer; probabilities are written with 17
// significant digits, so every float64 reads back bit for bit.
func WriteText(w io.Writer, g *uncertain.Graph) error {
	bw := bufio.NewWriter(w)
	line := append(make([]byte, 0, 64), "vertices "...)
	line = strconv.AppendInt(line, int64(g.NumVertices()), 10)
	if _, err := bw.Write(append(line, '\n')); err != nil {
		return err
	}
	for u := 0; u < g.NumVertices(); u++ {
		row, probs := g.AdjacencySuffix(u, int32(u))
		for i, v := range row {
			line = appendEdgeLine(line[:0], u, int(v), probs[i])
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendEdgeLine appends the text line "a b p\n" that WriteText and
// WriteBipartiteText write for one edge.
func appendEdgeLine(line []byte, a, b int, p float64) []byte {
	line = strconv.AppendInt(line, int64(a), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(b), 10)
	line = append(line, ' ')
	line = strconv.AppendFloat(line, p, 'g', 17, 64)
	return append(line, '\n')
}

// ReadText parses the text format. It is a wrapper over the streaming
// scanner: edges flow straight into a two-pass CSR build (seekable inputs
// are re-read, others replay a compact spool), so no edge list or adjacency
// map is ever materialized.
func ReadText(r io.Reader) (*uncertain.Graph, error) {
	g, _, err := buildGraph(replayScan(r, scanText))
	return g, err
}

var binaryMagic = [4]byte{'U', 'G', 'R', 'F'}

const binaryVersion uint32 = 1

// binaryRecord is the width of one binary edge record: u and v as
// little-endian uint32, then p as a little-endian IEEE-754 float64.
const binaryRecord = 16

// WriteBinary writes g in the binary format: the 24-byte header, then one
// binaryRecord per edge in (U,V) order, each encoded into one reused buffer.
func WriteBinary(w io.Writer, g *uncertain.Graph) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	copy(hdr[0:4], binaryMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	rec := make([]byte, binaryRecord)
	for u := 0; u < g.NumVertices(); u++ {
		row, probs := g.AdjacencySuffix(u, int32(u))
		for i, v := range row {
			binary.LittleEndian.PutUint32(rec[0:4], uint32(u))
			binary.LittleEndian.PutUint32(rec[4:8], uint32(v))
			binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(probs[i]))
			if _, err := bw.Write(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format, streaming records through a two-pass
// CSR build. Header counts are clamped before anything is allocated: the
// declared edge count must fit in the input's remaining bytes when r is
// seekable, and the vertex count may not wildly exceed what the edge count
// could touch, so a corrupt header cannot demand an arbitrary make.
func ReadBinary(r io.Reader) (*uncertain.Graph, error) {
	g, _, err := buildGraph(replayScan(r, func(rr io.Reader, fn EdgeFunc) (Header, error) {
		return scanBinary(rr, remainingBytes(rr), fn)
	}))
	return g, err
}

// SaveFile writes g to path, choosing the format by extension: ".ugb" is
// binary, ".json" is JSON, anything else text. A trailing ".gz" on any of
// these compresses the output transparently (e.g. "graph.ugb.gz").
func SaveFile(path string, g *uncertain.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	base := path
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		base = strings.TrimSuffix(path, ".gz")
		gz = gzip.NewWriter(f)
		w = gz
	}
	switch {
	case strings.HasSuffix(base, ".ugb"):
		err = WriteBinary(w, g)
	case strings.HasSuffix(base, ".json"):
		err = WriteJSON(w, g)
	default:
		err = WriteText(w, g)
	}
	if err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

var gzipMagic = [2]byte{0x1f, 0x8b}

// LoadFile reads a graph from path. The format is sniffed from content, not
// from the extension: gzip streams are decompressed, the "UGRF" magic
// selects the binary decoder, a leading '{' the JSON decoder, and anything
// else the text decoder. It is a thin wrapper over Load.
func LoadFile(path string) (*uncertain.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load decodes a graph from r — an open file, an HTTP request body, a
// bytes.Reader — sniffing gzip compression and the three formats exactly
// like LoadFile; no temporary file is involved.
func Load(r io.Reader) (*uncertain.Graph, error) {
	return ReadAny(r)
}

// ReadAny decodes a graph from r, sniffing gzip compression and the three
// formats as LoadFile does. Load is the preferred name. Like every reader
// here it is a wrapper over ScanEdges: seekable inputs (files, byte
// readers) are parsed twice straight into the final CSR, non-seekable ones
// spool decoded edges compactly for the second pass.
func ReadAny(r io.Reader) (*uncertain.Graph, error) {
	g, _, err := buildGraph(replayScan(r, ScanEdges))
	return g, err
}
