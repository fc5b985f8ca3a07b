package graphio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
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
// magic, leading '{' JSON, otherwise text) exactly like Load. Edges reach fn
// in input order; validation here is purely syntactic (self-loops, duplicate
// edges, and out-of-range probabilities are the graph builder's concern).
// Binary header counts are validated against the remaining input size when r
// is seekable, and against the declared edge count otherwise, so a corrupt
// header cannot demand an arbitrarily large allocation from a consumer that
// trusts the returned Header.
func ScanEdges(r io.Reader, fn EdgeFunc) (Header, error) {
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
	return scanText(br, fn)
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	h := Header{Vertices: -1}
	maxV := -1
	line := 0
	var lf lineFields
	for sc.Scan() {
		line++
		lf.split(sc.Bytes())
		if lf.n == 0 || lf.field(0)[0] == '#' {
			continue
		}
		if string(lf.field(0)) == "vertices" {
			if lf.n != 2 {
				return h, fmt.Errorf("graphio: line %d: malformed vertices directive: %w", line, ErrFormat)
			}
			v, err := strconv.Atoi(string(lf.field(1)))
			if err != nil || v < 0 {
				return h, fmt.Errorf("graphio: line %d: bad vertex count %q: %w", line, lf.field(1), ErrFormat)
			}
			h.Vertices, h.Declared = v, true
			continue
		}
		if lf.n != 3 {
			return h, fmt.Errorf("graphio: line %d: want 'u v p', got %q: %w", line, lf.trimmed(), ErrFormat)
		}
		u, err := strconv.Atoi(string(lf.field(0)))
		if err != nil {
			return h, fmt.Errorf("graphio: line %d: bad vertex %q: %w", line, lf.field(0), ErrFormat)
		}
		v, err := strconv.Atoi(string(lf.field(1)))
		if err != nil {
			return h, fmt.Errorf("graphio: line %d: bad vertex %q: %w", line, lf.field(1), ErrFormat)
		}
		p, err := strconv.ParseFloat(string(lf.field(2)), 64)
		if err != nil {
			return h, fmt.Errorf("graphio: line %d: bad probability %q: %w", line, lf.field(2), ErrFormat)
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

// replayScan adapts r to the replayable two-pass contract of
// uncertain.FromEdgeScanner. Seekable readers rewind and re-parse — nothing
// but the finished CSR is ever resident. Non-seekable readers spool the
// decoded edges on the first pass (~20 bytes/edge, far below the adjacency-
// map builder this replaces) and replay the spool.
func replayScan(r io.Reader, scan func(io.Reader, EdgeFunc) (Header, error)) edgeScan {
	if s, ok := r.(io.ReadSeeker); ok {
		if pos, err := s.Seek(0, io.SeekCurrent); err == nil {
			return func(fn EdgeFunc) (Header, error) {
				if _, err := s.Seek(pos, io.SeekStart); err != nil {
					return Header{}, fmt.Errorf("graphio: rewinding input: %w", err)
				}
				return scan(s, fn)
			}
		}
	}
	var sp spool
	scanned := false
	return func(fn EdgeFunc) (Header, error) {
		if scanned {
			return sp.replay(fn)
		}
		h, err := scan(r, func(u, v int, p float64) error {
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

// buildGraph drives uncertain.FromEdgeScanner over a replayable scan,
// producing the sorted CSR directly.
func buildGraph(scan edgeScan) (*uncertain.Graph, Header, error) {
	var hdr Header
	g, err := uncertain.FromEdgeScanner(func(emit func(int, int, float64) error) (int, error) {
		h, err := scan(EdgeFunc(emit))
		if err != nil {
			return 0, err
		}
		hdr = h
		return h.Vertices, nil
	})
	if err != nil {
		return nil, hdr, err
	}
	return g, hdr, nil
}

// OpenCSR streams the graph at path into its final CSR form, reopening the
// file for each of the two build passes so peak memory is the finished CSR
// plus one int32 per vertex — never an edge list or adjacency map. Format
// and compression are sniffed from content like Load.
func OpenCSR(path string) (*uncertain.Graph, Header, error) {
	return buildGraph(func(fn EdgeFunc) (Header, error) {
		return scanFile(path, fn)
	})
}

func scanFile(path string, fn EdgeFunc) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return ScanEdges(f, fn)
}

// unionFind is a union-by-min disjoint-set forest: every root is the
// smallest member of its set, so component IDs assigned by scanning vertices
// in ascending order match the smallest-member ordering used by
// Graph.ShardByComponent and Components.
type unionFind struct{ parent []int32 }

func (u *unionFind) grow(n int) {
	for len(u.parent) < n {
		u.parent = append(u.parent, int32(len(u.parent)))
	}
}

func (u *unionFind) find(v int) int {
	r := v
	for int(u.parent[r]) != r {
		r = int(u.parent[r])
	}
	for int(u.parent[v]) != v {
		u.parent[v], v = int32(r), int(u.parent[v])
	}
	return r
}

func (u *unionFind) union(a, b int) {
	hi := a
	if b > hi {
		hi = b
	}
	u.grow(hi + 1)
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		u.parent[rb] = int32(ra)
	} else {
		u.parent[ra] = int32(rb)
	}
}

// dsuChunkEdges is the edge-chunk granularity of the parallel labeling pass:
// big enough that handing a chunk to a worker costs far less than decoding
// it, small enough that peak buffered memory (one chunk per worker plus the
// one being filled) stays trivial next to the O(vertices) forests.
const dsuChunkEdges = 1 << 15

// maxScanWorkers caps the labeling workers; the decode is a single sequential
// stream, so a handful of union workers is enough to keep up with it.
const maxScanWorkers = 8

// scanComponentForest parses the input once, unions every edge into a
// disjoint-set forest, and counts every vertex's degree. With multiple CPUs
// the decode stays sequential (it is one file) but the union work is chunked
// out to workers, each with a private forest, merged once at the end;
// union-by-min makes the merged forest identical to the sequential one
// regardless of chunk scheduling. Degrees are counted on the decoding
// goroutine; the array grows by append, geometrically, with the largest
// endpoint seen. Peak memory stays O(vertices) per worker plus a few bounded
// edge chunks.
func scanComponentForest(scan edgeScan) (Header, *unionFind, []int32, error) {
	var deg []int32
	count := func(u, v int) {
		if hi := max(u, v); hi >= len(deg) {
			deg = append(deg, make([]int32, hi+1-len(deg))...)
		}
		deg[u]++
		deg[v]++
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > maxScanWorkers {
		workers = maxScanWorkers
	}
	if workers < 2 {
		var uf unionFind
		hdr, err := scan(func(u, v int, p float64) error {
			uf.union(u, v)
			count(u, v)
			return nil
		})
		return hdr, &uf, deg, err
	}

	chunks := make(chan []int32, workers)
	pool := sync.Pool{New: func() any { return make([]int32, 0, 2*dsuChunkEdges) }}
	forests := make([]*unionFind, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(uf *unionFind) {
			defer wg.Done()
			for c := range chunks {
				for i := 0; i < len(c); i += 2 {
					uf.union(int(c[i]), int(c[i+1]))
				}
				pool.Put(c[:0])
			}
		}(func() *unionFind { forests[w] = new(unionFind); return forests[w] }())
	}

	buf := pool.Get().([]int32)
	hdr, err := scan(func(u, v int, p float64) error {
		count(u, v)
		buf = append(buf, int32(u), int32(v))
		if len(buf) >= 2*dsuChunkEdges {
			chunks <- buf
			buf = pool.Get().([]int32)
		}
		return nil
	})
	if len(buf) > 0 {
		chunks <- buf
	}
	close(chunks)
	wg.Wait()
	if err != nil {
		return hdr, nil, nil, err
	}

	master := forests[0]
	for _, f := range forests[1:] {
		for v := range f.parent {
			if p := int(f.parent[v]); p != v {
				master.union(v, p) // union grows the master as needed
			}
		}
	}
	return hdr, master, deg, nil
}

// ScanComponentBatches mines the support components of the graph at path
// without ever materializing the whole CSR. One pass labels components with
// a union-find and counts every vertex's degree; components are closed, so
// a vertex's degree within its batch is its degree in the file, and a
// component's edge count is half its degree sum. Consecutive components (in
// smallest-member order, matching ShardByComponent) are then greedily packed
// into batches of at most maxEdges edges — a single component larger than
// maxEdges gets a batch to itself; maxEdges <= 0 means one batch for
// everything. Each batch is filled by one more pass with a component filter,
// straight into its CSR (uncertain.FromDegrees validates every edge as it
// lands), and handed to fn as a standalone graph whose vertex i corresponds
// to newToOld[i] in the file's ID space (ascending, so canonical orderings
// survive the mapping). The file is parsed 1 + (number of batches) times.
// Peak memory is O(vertices) bookkeeping plus the largest batch's CSR. A
// non-nil error from fn aborts the iteration and is returned verbatim.
func ScanComponentBatches(path string, maxEdges int, fn func(batch *uncertain.Graph, newToOld []int) error) error {
	return scanComponentBatches(func(efn EdgeFunc) (Header, error) {
		return scanFile(path, efn)
	}, maxEdges, fn)
}

func scanComponentBatches(scan edgeScan, maxEdges int, fn func(batch *uncertain.Graph, newToOld []int) error) error {
	hdr, uf, deg, err := scanComponentForest(scan)
	if err != nil {
		return err
	}
	n := hdr.Vertices
	uf.grow(n)
	deg = append(deg, make([]int32, n-len(deg))...) // scanners keep endpoints below n
	comp := make([]int32, n)
	count := 0
	for v := 0; v < n; v++ {
		if r := uf.find(v); r == v {
			comp[v] = int32(count)
			count++
		} else {
			comp[v] = comp[r] // r < v: union-by-min roots are minimal
		}
	}
	if count == 0 {
		return nil
	}
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
	changed := fmt.Errorf("graphio: input changed between passes: %w", ErrFormat)
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
		g, err := uncertain.FromDegrees(batchDeg, func(emit func(u, v int, p float64) error) (int, error) {
			_, err := scan(func(u, v int, p float64) error {
				if u >= n || v >= n {
					return changed
				}
				c := comp[u]
				if c < lo || c >= hi {
					return nil
				}
				if comp[v] != c {
					return changed
				}
				return emit(int(oldToNew[u]), int(oldToNew[v]), p)
			})
			return len(newToOld), err
		})
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
