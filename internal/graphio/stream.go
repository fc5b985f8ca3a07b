package graphio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// ErrFormat is the sentinel wrapped by every parse error the streaming
// reader produces: malformed lines, bad magic, truncated records, gzip
// garbage, implausible headers. Errors returned by the caller's EdgeFunc
// propagate unchanged; everything else from ScanEdges matches
// errors.Is(err, ErrFormat).
var ErrFormat = errors.New("graphio: malformed input")

// EdgeFunc receives one probabilistic edge per call during a streaming scan.
// Returning a non-nil error aborts the scan and surfaces that error verbatim.
type EdgeFunc func(u, v int, p float64) error

// edgeScan parses a whole input once, delivering every edge to fn; calling
// it again parses the input again.
type edgeScan func(fn EdgeFunc) (Header, error)

// Header describes what a scan learned about the input's shape.
type Header struct {
	// Vertices is the graph's vertex count: the declared count when the
	// input carries one (text directive, binary header, JSON field),
	// otherwise max endpoint + 1.
	Vertices int
	// Declared reports whether Vertices came from the input rather than
	// being inferred from endpoints.
	Declared bool
	// Edges is the number of edges delivered to the EdgeFunc.
	Edges int64
}

// maxEndpoint bounds vertex IDs accepted from any format so downstream CSR
// indices (int32) cannot overflow.
const maxEndpoint = 1<<31 - 1

// ScanEdges parses a graph from r edge by edge without materializing an edge
// list, sniffing gzip compression and the three formats (binary "UGRF"
// magic, leading '{' JSON, otherwise text) exactly like Load. It reads r once,
// and edges reach fn in input order, from the calling goroutine. Validation
// here is purely syntactic (self-loops, duplicate edges, and out-of-range
// probabilities are the graph builder's concern). Binary header counts are
// validated against the remaining input size when r is seekable, and against
// the declared edge count otherwise, so a corrupt header cannot demand an
// arbitrarily large allocation from a consumer that trusts the returned
// Header.
func ScanEdges(r io.Reader, fn EdgeFunc) (Header, error) {
	return scanAny(r, false, fn)
}

// scanAny is ScanEdges with a count mode: with count set, a text input's
// probabilities are not parsed (see scanTextPass).
func scanAny(r io.Reader, count bool, fn EdgeFunc) (Header, error) {
	remaining := remainingBytes(r)
	br := bufio.NewReaderSize(r, 64*1024)
	if head, err := br.Peek(2); err == nil && [2]byte(head) == gzipMagic {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return Header{}, fmt.Errorf("graphio: opening gzip stream: %v: %w", err, ErrFormat)
		}
		defer zr.Close()
		// The decompressed size is unknown, so the binary path falls back to
		// trusting (and bounding) the declared edge count.
		remaining = -1
		br = bufio.NewReaderSize(zr, 64*1024)
	}
	if head, err := br.Peek(4); err == nil && [4]byte(head) == binaryMagic {
		return scanBinary(br, remaining, fn)
	}
	if head, err := br.Peek(1); err == nil && head[0] == '{' {
		return scanJSON(br, fn)
	}
	return scanTextPass(br, count, fn)
}

// sniffText reports whether an input starting with head is read as text:
// ScanEdges takes it for neither gzip, binary nor JSON.
func sniffText(head []byte) bool {
	switch {
	case len(head) >= 2 && [2]byte(head[:2]) == gzipMagic:
		return false
	case len(head) >= 4 && [4]byte(head[:4]) == binaryMagic:
		return false
	case len(head) >= 1 && head[0] == '{':
		return false
	}
	return true
}

// remainingBytes reports how many bytes of r are left to read, or -1 when r
// is not seekable (or seeking fails).
func remainingBytes(r io.Reader) int64 {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return -1
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return -1
	}
	return end - cur
}

// scanText parses the text format line by line. Lines are tokenized in the
// scanner's buffer (lineFields) and numbers parsed by strconv from
// conversions that do not escape, so a line costs no allocation; the error
// messages quote the same trimmed line and fields as strings.Fields would.
func scanText(r io.Reader, fn EdgeFunc) (Header, error) {
	return scanTextPass(r, false, fn)
}

// scanTextPass is scanText with a count mode: with count set, the third
// field of an edge line is neither parsed nor validated, and fn receives
// p = 0. A counting pass needs only the endpoints, and strconv.ParseFloat is
// about half of a line's parse.
func scanTextPass(r io.Reader, count bool, fn EdgeFunc) (Header, error) {
	t := newTextPass()
	if err := t.scan(r, count, fn); err != nil {
		return t.h, err
	}
	return t.finish()
}

// textPass is what a text scan has learned so far: the header (Vertices is
// the last directive's count, -1 before any directive), the largest
// endpoint, and the number of lines read.
type textPass struct {
	h    Header
	maxV int
	line int
}

func newTextPass() textPass { return textPass{h: Header{Vertices: -1}, maxV: -1} }

// scan reads r's lines into t, delivering each edge to fn. With count set it
// skips the probability field, as scanTextPass describes.
func (t *textPass) scan(r io.Reader, count bool, fn EdgeFunc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lf lineFields
	for sc.Scan() {
		t.line++
		line := sc.Bytes()
		u, v, pf, ok := plainEdge(line)
		if !ok {
			lf.split(line)
			if lf.n == 0 || lf.field(0)[0] == '#' {
				continue
			}
			if string(lf.field(0)) == "vertices" {
				if lf.n != 2 {
					return fmt.Errorf("graphio: line %d: malformed vertices directive: %w", t.line, ErrFormat)
				}
				v, err := strconv.Atoi(string(lf.field(1)))
				if err != nil || v < 0 {
					return fmt.Errorf("graphio: line %d: bad vertex count %q: %w", t.line, lf.field(1), ErrFormat)
				}
				t.h.Vertices, t.h.Declared = v, true
				continue
			}
			if lf.n != 3 {
				return fmt.Errorf("graphio: line %d: want 'u v p', got %q: %w", t.line, lf.trimmed(), ErrFormat)
			}
			var err error
			if u, err = strconv.Atoi(string(lf.field(0))); err != nil {
				return fmt.Errorf("graphio: line %d: bad vertex %q: %w", t.line, lf.field(0), ErrFormat)
			}
			if v, err = strconv.Atoi(string(lf.field(1))); err != nil {
				return fmt.Errorf("graphio: line %d: bad vertex %q: %w", t.line, lf.field(1), ErrFormat)
			}
			pf = lf.field(2)
		}
		p := 0.0
		if !count {
			var err error
			if p, err = strconv.ParseFloat(string(pf), 64); err != nil {
				return fmt.Errorf("graphio: line %d: bad probability %q: %w", t.line, pf, ErrFormat)
			}
		}
		if u < 0 || v < 0 || u > maxEndpoint || v > maxEndpoint {
			return fmt.Errorf("graphio: line %d: vertex out of range: %w", t.line, ErrFormat)
		}
		t.maxV = max(t.maxV, u, v)
		t.h.Edges++
		if err := fn(u, v, p); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graphio: %v: %w", err, ErrFormat)
	}
	return nil
}

// finish resolves the header once every line is read: without a directive,
// the vertex count is max endpoint + 1.
func (t *textPass) finish() (Header, error) {
	if !t.h.Declared {
		t.h.Vertices = t.maxV + 1
	}
	if t.maxV >= t.h.Vertices {
		return t.h, fmt.Errorf("graphio: edge endpoint %d exceeds declared vertex count %d: %w", t.maxV, t.h.Vertices, ErrFormat)
	}
	return t.h, nil
}

// merge folds into t the header and largest endpoint of the pass over the
// lines that follow t's: edges add up, and a directive there overrides t's,
// since the last one in the input wins.
func (t *textPass) merge(next textPass) {
	t.h.Edges += next.h.Edges
	if next.h.Declared {
		t.h.Vertices, t.h.Declared = next.h.Vertices, true
	}
	t.maxV = max(t.maxV, next.maxV)
}

// plainEdge parses, in one walk, the edge lines most files consist of:
// optional ASCII white space, two runs of 1–9 ASCII digits and one run of
// ASCII non-space bytes, with ASCII white space between the runs and nothing
// but ASCII white space after them. It returns the endpoints and the third
// field; ok is false for every other line, which lineFields and strconv
// parse instead. On a line it accepts, strings.Fields finds the same three
// fields and strconv.Atoi the same two values, and nine digits keep both
// endpoints below maxEndpoint.
func plainEdge(line []byte) (u, v int, p []byte, ok bool) {
	i := skipSpace(line, 0)
	if u, i = digitRun(line, i); i < 0 {
		return 0, 0, nil, false
	}
	j := skipSpace(line, i)
	if j == i {
		return 0, 0, nil, false
	}
	if v, i = digitRun(line, j); i < 0 {
		return 0, 0, nil, false
	}
	j = skipSpace(line, i)
	if j == i {
		return 0, 0, nil, false
	}
	i = j
	for i < len(line) && byteClass[line[i]] == fieldByte {
		i++
	}
	if i == j || skipSpace(line, i) != len(line) {
		return 0, 0, nil, false
	}
	return u, v, line[j:i], true
}

// digitRun reads up to nine ASCII digits of b from i, returning their value
// and the index after them, or -1 when there are none.
func digitRun(b []byte, i int) (n, next int) {
	start := i
	for ; i < len(b) && i-start < 9 && b[i]-'0' <= 9; i++ {
		n = n*10 + int(b[i]-'0')
	}
	if i == start {
		return 0, -1
	}
	return n, i
}

// skipSpace returns the index of the first byte of b from i on that is not
// ASCII white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && byteClass[b[i]] == spaceByte {
		i++
	}
	return i
}

func scanBinary(r io.Reader, remaining int64, fn EdgeFunc) (Header, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Header{}, fmt.Errorf("graphio: reading magic: %v: %w", err, ErrFormat)
	}
	if magic != binaryMagic {
		return Header{}, fmt.Errorf("graphio: bad magic %q: %w", magic, ErrFormat)
	}
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return Header{}, fmt.Errorf("graphio: reading header: %v: %w", err, ErrFormat)
	}
	version := binary.LittleEndian.Uint32(hdr[0:4])
	if version != binaryVersion {
		return Header{}, fmt.Errorf("graphio: unsupported version %d: %w", version, ErrFormat)
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	m := binary.LittleEndian.Uint64(hdr[12:20])
	if n > 1<<31 || m > 1<<33 {
		return Header{}, fmt.Errorf("graphio: implausible header n=%d m=%d: %w", n, m, ErrFormat)
	}
	// With a known input size, the declared edge count must fit in the bytes
	// that are actually present (24-byte header + 16 bytes per record) —
	// a corrupt count fails here instead of after a giant allocation.
	if remaining >= 0 && int64(m) > (remaining-24)/16 {
		return Header{}, fmt.Errorf("graphio: header declares %d edges but input holds at most %d: %w", m, max((remaining-24)/16, 0), ErrFormat)
	}
	// Structural clamp on the vertex count: a graph with far more vertices
	// than 2m+slack is almost all isolated vertices, and a corrupt header
	// could otherwise demand a multi-GiB CSR for a tiny file (the gzip path
	// has no reliable size to check against).
	if n > 2*m+(1<<20) {
		return Header{}, fmt.Errorf("graphio: implausible header: %d vertices for %d edges: %w", n, m, ErrFormat)
	}
	h := Header{Vertices: int(n), Declared: true}
	maxV := -1
	// Records are decoded straight out of the reader's buffer: each refill
	// exposes every whole record it holds, and one Discard consumes them.
	for i := uint64(0); i < m; {
		if br.Buffered() < binaryRecord {
			if b, err := br.Peek(binaryRecord); len(b) < binaryRecord {
				if err == io.EOF && len(b) > 0 {
					err = io.ErrUnexpectedEOF // a partial record, as io.ReadFull reports it
				}
				return h, fmt.Errorf("graphio: edge %d: %v: %w", i, err, ErrFormat)
			}
		}
		buf, _ := br.Peek(br.Buffered())
		k := min(uint64(len(buf)/binaryRecord), m-i)
		buf = buf[:k*binaryRecord]
		for off := 0; off < len(buf); off += binaryRecord {
			rec := buf[off : off+binaryRecord]
			u := int(binary.LittleEndian.Uint32(rec[0:4]))
			v := int(binary.LittleEndian.Uint32(rec[4:8]))
			p := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16]))
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
		_, _ = br.Discard(int(k * binaryRecord))
		i += k
	}
	if maxV >= h.Vertices {
		return h, fmt.Errorf("graphio: edge endpoint %d exceeds declared vertex count %d: %w", maxV, h.Vertices, ErrFormat)
	}
	return h, nil
}

func jsonErr(err error) error {
	return fmt.Errorf("graphio: decoding JSON: %v: %w", err, ErrFormat)
}

func scanJSON(r io.Reader, fn EdgeFunc) (Header, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	h := Header{Vertices: 0, Declared: true}
	maxV := -1
	tok, err := dec.Token()
	if err != nil {
		return h, jsonErr(err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return h, fmt.Errorf("graphio: decoding JSON: expected an object: %w", ErrFormat)
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return h, jsonErr(err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "vertices":
			var v int
			if err := dec.Decode(&v); err != nil {
				return h, jsonErr(err)
			}
			if v < 0 {
				return h, fmt.Errorf("graphio: negative vertex count %d: %w", v, ErrFormat)
			}
			h.Vertices = v
		case "edges":
			tok, err := dec.Token()
			if err != nil {
				return h, jsonErr(err)
			}
			if tok == nil {
				continue // "edges": null means no edges
			}
			if d, ok := tok.(json.Delim); !ok || d != '[' {
				return h, fmt.Errorf("graphio: decoding JSON: edges must be an array: %w", ErrFormat)
			}
			for dec.More() {
				var e jsonEdge
				if err := dec.Decode(&e); err != nil {
					return h, jsonErr(err)
				}
				if e.U < 0 || e.V < 0 || e.U > maxEndpoint || e.V > maxEndpoint {
					return h, fmt.Errorf("graphio: JSON edge %d: vertex out of range: %w", h.Edges, ErrFormat)
				}
				if e.U > maxV {
					maxV = e.U
				}
				if e.V > maxV {
					maxV = e.V
				}
				h.Edges++
				if err := fn(e.U, e.V, e.P); err != nil {
					return h, err
				}
			}
			if _, err := dec.Token(); err != nil { // closing ']'
				return h, jsonErr(err)
			}
		default:
			return h, fmt.Errorf("graphio: decoding JSON: unknown field %q: %w", key, ErrFormat)
		}
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return h, jsonErr(err)
	}
	if maxV >= h.Vertices {
		return h, fmt.Errorf("graphio: JSON edge endpoint %d exceeds vertex count %d: %w", maxV, h.Vertices, ErrFormat)
	}
	return h, nil
}

// parser parses one whole input, as ScanEdges does. With count set, a text
// input's probabilities are not parsed: fn receives p = 0 for each edge.
type parser func(r io.Reader, count bool, fn EdgeFunc) (Header, error)

// minChunkBytes is the smallest text input buildGraph splits across CPUs.
// Below it, the goroutines and per-chunk degree arrays cost about what the
// split saves.
const minChunkBytes = 64 << 10

// scanWorkers is the number of CPUs a load may use: the chunks a big text
// file is cut into.
func scanWorkers() int { return min(runtime.GOMAXPROCS(0), maxScanWorkers) }

// maxScanWorkers caps the chunks of one load, and so its goroutines and the
// degree arrays it holds at once (see buildGraph).
const maxScanWorkers = 8

// buildGraph parses r into its CSR in two passes: a count pass that sizes
// every row, then uncertain.FromDegrees's fill pass, which validates every
// edge as it places it. How the passes read r depends on r:
//
//   - A seekable input is rewound for the second pass. Its count pass parses
//     the endpoints only and validates nothing (parse's count mode). A text
//     input that is also an io.ReaderAt, that holds at least minBytes and
//     that sniffs as uncompressed text is cut at line starts into up to
//     workers chunks, and both passes run every chunk at once (buildChunks).
//     Everything else is one chunk.
//   - Such a load reports the first error it meets, not the first error in
//     the input, and a chunk counts lines from its own start. So on any
//     failure the load runs again as one chunk, with every edge parsed and
//     validated in the count pass (buildStream with checked set). That
//     sequence reports the input's first fault, as the parse meets it.
//   - A non-seekable input, such as an HTTP request body, runs that checked
//     sequence straight away. Its count pass spools the decoded edges, ~16
//     bytes each, and the fill replays the spool.
//
// Beyond the finished CSR, a load holds about 2·chunks int32 per vertex while
// it runs: a degree array per chunk, and one more per chunk but the last
// (FromDegrees). The degree arrays grow with the largest endpoint seen, up to
// the bound degreeCounter keeps until checkVertices has checked the count.
func buildGraph(r io.Reader, parse parser, workers int, minBytes int64) (*uncertain.Graph, Header, error) {
	s, ok := r.(io.ReadSeeker)
	var pos int64
	if ok {
		var err error
		pos, err = s.Seek(0, io.SeekCurrent)
		ok = err == nil
	}
	if !ok {
		return buildStream(spoolScan(r, parse), true)
	}
	rewound := func(count bool, fn EdgeFunc) (Header, error) {
		if _, err := s.Seek(pos, io.SeekStart); err != nil {
			return Header{}, fmt.Errorf("graphio: rewinding input: %w", err)
		}
		return parse(s, count, fn)
	}
	var g *uncertain.Graph
	var hdr Header
	var err error
	if ra, cuts := planChunks(s, pos, workers, minBytes); cuts != nil {
		g, hdr, err = buildChunks(ra, cuts)
	} else {
		g, hdr, err = buildStream(rewound, false)
	}
	if err == nil {
		return g, hdr, nil
	}
	return buildStream(rewound, true)
}

// buildStream builds the CSR from one stream that scan parses twice. The
// count pass runs in parse's count mode unless checked is set; then it
// parses every edge whole and validates it with uncertain.CheckEdge, so the
// load fails on the input's first bad line or edge.
func buildStream(scan func(count bool, fn EdgeFunc) (Header, error), checked bool) (*uncertain.Graph, Header, error) {
	var c degreeCounter
	hdr, err := scan(!checked, func(u, v int, p float64) error {
		if checked {
			if err := uncertain.CheckEdge(u, v, p); err != nil {
				return err
			}
		}
		c.add(u, v)
		return nil
	})
	if err != nil {
		return nil, hdr, err
	}
	if err := checkVertices(hdr); err != nil {
		return nil, hdr, err
	}
	if 2*hdr.Edges > math.MaxInt32 {
		return nil, hdr, fmt.Errorf("uncertain: %d edges exceed the CSR index range", hdr.Edges)
	}
	g, err := uncertain.FromDegrees([][]int32{c.degrees(hdr.Vertices)}, []uncertain.EdgeScan{
		func(emit func(u, v int, p float64) error) (int, error) {
			h, err := scan(false, emit)
			return h.Vertices, err
		},
	})
	if err != nil {
		return nil, hdr, err
	}
	return g, hdr, nil
}

// checkVertices rejects a vertex count, declared or inferred as max
// endpoint + 1, that the edges cannot justify, by the binary header's rule:
// more than 2m + 2²⁰ vertices for m edges, or more than the int32 vertex IDs
// can number. Counts are checked once the scan knows m, before anything of
// their size is allocated.
func checkVertices(h Header) error {
	if h.Vertices > maxEndpoint+1 || int64(h.Vertices) > 2*h.Edges+1<<20 {
		return fmt.Errorf("graphio: implausible vertex count: %d vertices for %d edges: %w", h.Vertices, h.Edges, ErrFormat)
	}
	return nil
}

// degreeCounter counts the degrees of one pass's edges. Its array covers the
// endpoints seen so far, but only up to 2k + 2²⁰ after k edges: an edge with a
// larger endpoint waits in far until the scan has checked every endpoint
// against the vertex count and checkVertices has bounded that count. So an
// input of a few bytes that names a huge endpoint fails without allocating
// that endpoint's array, and one that names its high IDs first holds at most
// 8 bytes per edge more.
type degreeCounter struct {
	deg   []int32
	far   []int32 // endpoints of the waiting edges, two per edge
	edges int64
}

// add counts the edge {u, v}, or holds it back in far; it reports whether
// it counted the edge.
func (c *degreeCounter) add(u, v int) bool {
	c.edges++
	if hi := max(u, v); hi >= len(c.deg) {
		if int64(hi) >= 2*c.edges+1<<20 {
			c.far = append(c.far, int32(u), int32(v))
			return false
		}
		c.deg = growDegrees(c.deg, hi+1)
	}
	c.deg[u]++
	c.deg[v]++
	return true
}

// degrees returns the counted degrees on n vertices. n exceeds every
// endpoint: the scan checked them all.
func (c *degreeCounter) degrees(n int) []int32 {
	deg := growDegrees(c.deg, n)
	for _, x := range c.far {
		deg[x]++
	}
	return deg
}

// growDegrees extends deg to n entries, zero beyond its old length. Its
// capacity grows to a power of two, so endpoints that rise through the input
// cost O(n) copying in total, and how often a pass allocates depends only on
// the powers of two its endpoints cross.
func growDegrees(deg []int32, n int) []int32 {
	if n > cap(deg) {
		grown := make([]int32, len(deg), max(1<<bits.Len(uint(n-1)), 256))
		copy(grown, deg)
		deg = grown
	}
	return deg[:n]
}

// planChunks returns the chunk plan for the input r from pos on: the
// boundaries of up to workers byte ranges, each starting at a line start, or
// nil when the input is one chunk. It splits only an io.ReaderAt of known
// size that holds at least minBytes and sniffs as uncompressed text; how
// many chunks it cuts does not depend on the size.
func planChunks(r io.ReadSeeker, pos int64, workers int, minBytes int64) (io.ReaderAt, []int64) {
	ra, ok := r.(io.ReaderAt)
	size := remainingBytes(r)
	if !ok || workers < 2 || size < max(minBytes, 1) {
		return nil, nil
	}
	var head [4]byte
	n, err := ra.ReadAt(head[:min(size, 4)], pos)
	if err != nil || !sniffText(head[:n]) {
		return nil, nil
	}
	cuts := make([]int64, workers+1)
	cuts[0], cuts[workers] = pos, pos+size
	buf := make([]byte, 512)
	for k := 1; k < workers; k++ {
		// lineStart reads the byte before c, so c stays past pos.
		c := max(pos+size*int64(k)/int64(workers), cuts[k-1], pos+1)
		if cuts[k], err = lineStart(ra, c, pos+size, buf); err != nil {
			return nil, nil
		}
	}
	return ra, cuts
}

// lineStart returns the first line start at or after off (pos < off ≤ end):
// the offset just past the first newline at or after off−1, or end when
// there is none.
func lineStart(ra io.ReaderAt, off, end int64, buf []byte) (int64, error) {
	for at := off - 1; at < end; {
		n, err := ra.ReadAt(buf[:min(int64(len(buf)), end-at)], at)
		if i := bytes.IndexByte(buf[:n], '\n'); i >= 0 {
			return at + int64(i) + 1, nil
		}
		if n == 0 {
			if err == nil {
				err = io.ErrNoProgress
			}
			return 0, err
		}
		at += int64(n)
	}
	return end, nil
}

// buildChunks runs buildGraph's two passes over the text chunks
// [cuts[k], cuts[k+1]) of ra, every chunk at once. Each chunk counts into a
// degree array of its own, and the merged header takes the last vertices
// directive in input order (max endpoint + 1 without one). Its errors are
// not the checked sequence's, so buildGraph re-runs the load on any failure.
func buildChunks(ra io.ReaderAt, cuts []int64) (*uncertain.Graph, Header, error) {
	w := len(cuts) - 1
	chunk := func(k int) io.Reader { return io.NewSectionReader(ra, cuts[k], cuts[k+1]-cuts[k]) }
	passes := make([]textPass, w)
	counters := make([]degreeCounter, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	count := func(k int) {
		t := newTextPass()
		var c degreeCounter
		errs[k] = t.scan(chunk(k), true, func(u, v int, _ float64) error {
			c.add(u, v)
			return nil
		})
		passes[k], counters[k] = t, c
	}
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			count(k)
		}()
	}
	count(0)
	wg.Wait()
	merged := newTextPass()
	for k, err := range errs {
		if err != nil {
			return nil, Header{}, err
		}
		merged.merge(passes[k])
	}
	hdr, err := merged.finish()
	if err == nil {
		err = checkVertices(hdr)
	}
	if err != nil {
		return nil, hdr, err
	}
	degs := make([][]int32, w)
	fills := make([]uncertain.EdgeScan, w)
	for k := range degs {
		degs[k] = counters[k].degrees(hdr.Vertices)
		fills[k] = func(emit func(u, v int, p float64) error) (int, error) {
			t := newTextPass()
			if err := t.scan(chunk(k), false, emit); err != nil {
				return -1, err
			}
			if t != passes[k] {
				return -1, errChanged
			}
			return -1, nil
		}
	}
	g, err := uncertain.FromDegrees(degs, fills)
	if err != nil {
		return nil, hdr, err
	}
	return g, hdr, nil
}

// errChanged reports an input whose passes disagree.
var errChanged = fmt.Errorf("graphio: input changed between passes: %w", ErrFormat)

// spoolScan adapts the non-seekable input r to buildStream's two passes: the
// first parses r whole, spooling the decoded edges in ~16 bytes each, and
// the second replays the spool.
func spoolScan(r io.Reader, parse parser) func(bool, EdgeFunc) (Header, error) {
	var sp spool
	scanned := false
	return func(_ bool, fn EdgeFunc) (Header, error) {
		if scanned {
			return sp.replay(fn)
		}
		h, err := parse(r, false, func(u, v int, p float64) error {
			sp.add(u, v, p)
			return fn(u, v, p)
		})
		if err == nil {
			scanned = true
			sp.hdr = h
		}
		return h, err
	}
}

// spool buffers decoded edges in struct-of-arrays form for replay.
type spool struct {
	us, vs []int32
	ps     []float64
	hdr    Header
}

func (s *spool) add(u, v int, p float64) {
	s.us = append(s.us, int32(u))
	s.vs = append(s.vs, int32(v))
	s.ps = append(s.ps, p)
}

func (s *spool) replay(fn EdgeFunc) (Header, error) {
	for i := range s.us {
		if err := fn(int(s.us[i]), int(s.vs[i]), s.ps[i]); err != nil {
			return s.hdr, err
		}
	}
	return s.hdr, nil
}

func scanFile(path string, fn EdgeFunc) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return ScanEdges(f, fn)
}

// labelComponents is the batch scan's first pass. It parses the input once,
// counting every vertex's degree with a degreeCounter and unioning each edge
// the counter accepts into one uncertain.Forest; the edges the counter holds
// back join the forest once checkVertices has bounded the vertex count, so a
// far endpoint is never allocated for before that check. It returns every
// vertex's component, numbered by smallest member as ShardByComponent
// numbers its shards, the number of components, and the degrees. Both arrays
// hold exactly n entries, since they live through every batch fill.
func labelComponents(scan edgeScan) ([]int32, int, []int32, error) {
	var c degreeCounter
	var f uncertain.Forest
	hdr, err := scan(func(u, v int, _ float64) error {
		if c.add(u, v) {
			f.Union(u, v)
		}
		return nil
	})
	if err == nil {
		err = checkVertices(hdr)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	for i := 0; i < len(c.far); i += 2 {
		f.Union(int(c.far[i]), int(c.far[i+1]))
	}
	comp, count := f.Labels(hdr.Vertices)
	return comp, count, slices.Clone(c.degrees(hdr.Vertices)), nil
}

// ScanComponentBatches mines the support components of the graph at path
// without ever materializing the whole CSR. One pass counts every vertex's
// degree and labels components with a union-find (labelComponents), holding
// an edge with a far endpoint back until the vertex count is checked, as a
// load does. Components are closed, so a vertex's degree within its batch is
// its degree in the file, and a component's edge count is half its degree
// sum. Consecutive components (in smallest-member order, matching
// ShardByComponent) are then greedily packed into batches of at most
// maxEdges edges — a single component larger than maxEdges gets a batch to
// itself; maxEdges <= 0 means one batch for everything. Each batch is filled
// by one more pass with a component filter, straight into its CSR
// (uncertain.FromDegrees validates every edge as it lands), and handed to fn
// as a standalone graph whose vertex i corresponds to newToOld[i] in the
// file's ID space (ascending, so canonical orderings survive the mapping).
// The file is parsed 1 + (number of batches) times. Peak memory is
// O(vertices) bookkeeping plus the largest batch's CSR. A non-nil error from
// fn aborts the iteration and is returned verbatim.
func ScanComponentBatches(path string, maxEdges int, fn func(batch *uncertain.Graph, newToOld []int) error) error {
	return scanComponentBatches(func(efn EdgeFunc) (Header, error) {
		return scanFile(path, efn)
	}, maxEdges, fn)
}

func scanComponentBatches(scan edgeScan, maxEdges int, fn func(batch *uncertain.Graph, newToOld []int) error) error {
	comp, count, deg, err := labelComponents(scan)
	if err != nil || count == 0 {
		return err
	}
	n := len(comp)
	// Every edge adds 2 to its component's degree sum.
	edgesPer := make([]int64, count)
	for v, d := range deg {
		edgesPer[comp[v]] += int64(d)
	}
	for c := range edgesPer {
		edgesPer[c] /= 2
	}

	// deg turns into oldToNew batch by batch: building a batch reads each
	// of its vertices' degree and overwrites it with the vertex's ID in the
	// batch. Every vertex is in exactly one batch, and a batch's fill only
	// looks up its own vertices, so one array serves both.
	oldToNew := deg
	for start := 0; start < count; {
		end := start + 1
		sum := edgesPer[start]
		for end < count && (maxEdges <= 0 || sum+edgesPer[end] <= int64(maxEdges)) {
			sum += edgesPer[end]
			end++
		}
		lo, hi := int32(start), int32(end)
		var newToOld []int
		var batchDeg []int32
		for v := 0; v < n; v++ {
			if c := comp[v]; c >= lo && c < hi {
				batchDeg = append(batchDeg, deg[v])
				oldToNew[v] = int32(len(newToOld))
				newToOld = append(newToOld, v)
			}
		}
		g, err := uncertain.FromDegrees([][]int32{batchDeg}, []uncertain.EdgeScan{func(emit func(u, v int, p float64) error) (int, error) {
			_, err := scan(func(u, v int, p float64) error {
				if u >= n || v >= n {
					return errChanged
				}
				c := comp[u]
				if c < lo || c >= hi {
					return nil
				}
				if comp[v] != c {
					return errChanged
				}
				return emit(int(oldToNew[u]), int(oldToNew[v]), p)
			})
			return len(newToOld), err
		}})
		if err != nil {
			return err
		}
		if err := fn(g, newToOld); err != nil {
			return err
		}
		start = end
	}
	return nil
}
