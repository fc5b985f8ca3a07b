package uncertain

import (
	"fmt"
	"math"
	"sync"
)

// EdgeScan feeds one stream of probabilistic edges to emit, one call per
// edge, and returns the vertex count the stream declares, or -1 when the
// stream is only part of an input and cannot know it. An error returned by
// emit must be propagated back unchanged.
//
// FromDegrees runs one EdgeScan per chunk of an input after an earlier pass
// counted each chunk's degrees. A scan must emit exactly the edges that pass
// counted, in the same order: file-backed scanners re-read their range of
// the file, in-memory ones replay a buffered edge list.
type EdgeScan func(emit func(u, v int, p float64) error) (n int, err error)

// errUnstableScan reports a fill that disagreed with the counted degrees.
func errUnstableScan() error {
	return fmt.Errorf("uncertain: edge scanner is not replayable: passes disagree")
}

// CheckEdge returns the error FromDegrees returns for an edge that no Graph
// may hold: a self-loop, a negative endpoint, or a probability outside
// (0, 1]. A counting pass that calls it on every edge fails on the first bad
// edge of the input, with the error the fill would give.
func CheckEdge(u, v int, p float64) error {
	if u == v {
		return fmt.Errorf("uncertain: edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("uncertain: edge {%d,%d}: negative endpoint: %w", u, v, ErrVertexRange)
	}
	return validProb(p)
}

// FromDegrees builds a Graph on n vertices straight into its final CSR form,
// without an edge list or a Builder hash map. The input comes in chunks:
// fills[k] emits chunk k's edges, and degs[k][u], counted by an earlier pass
// over the same edges, is how many of them touch u. Every degs[k] has length
// n. The fills run at once, one goroutine per chunk. Row u holds chunk 0's
// edges at u first, then chunk 1's, and so on, each chunk's in the order its
// fill emits them; so a row keeps its input order, and the arrays equal those
// of a one-chunk build of the concatenated stream bit for bit.
//
// Every edge is validated as it is placed (CheckEdge, then endpoint range). A
// chunk that writes past its share of a row, or leaves one short, fails as a
// non-replayable scan instead of corrupting the CSR, and no two chunks write
// the same slot. When several chunks fail, the error of the first in input
// order is returned. degs is consumed: each array counts its chunk's slots
// still to fill. Peak memory beyond the finished CSR is degs plus one more
// int32 per vertex for each chunk but the last. Duplicate edges are detected
// after the per-row sort (adjacent equal neighbors) and reported as a wrapped
// ErrDuplicateEdge, matching Builder.AddEdge semantics.
//
// graphio's loaders count degrees chunk by chunk and call this; its
// component batches count degrees while labelling components and call it
// once per batch, with one chunk.
func FromDegrees(degs [][]int32, fills []EdgeScan) (*Graph, error) {
	w := len(degs)
	if w == 0 || len(fills) != w {
		return nil, fmt.Errorf("uncertain: %d degree arrays for %d fills", w, len(fills))
	}
	n := len(degs[0])
	for _, d := range degs[1:] {
		if len(d) != n {
			return nil, fmt.Errorf("uncertain: degree arrays of %d and %d vertices", n, len(d))
		}
	}
	offsets := make([]int32, n+1)
	total := int64(0)
	for u := 0; u < n; u++ {
		for _, d := range degs {
			total += int64(d[u])
		}
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("uncertain: %d edge endpoints exceed the CSR index range", total)
		}
		offsets[u+1] = int32(total)
	}
	nbrs := make([]int32, total)
	probs := make([]float64, total)

	// Chunk k's share of row u ends at ends[k][u]: the row's end for the last
	// chunk, and where chunk k+1's share starts for the others. With degs[k][u]
	// slots left to fill, chunk k's next edge at u goes to ends[k][u] −
	// degs[k][u]. Bounding every write by the slots left is what keeps a fill
	// that emits different edges out of its neighbours' shares.
	ends := make([][]int32, w)
	ends[w-1] = offsets[1:]
	for k := w - 2; k >= 0; k-- {
		e, next, nextDeg := make([]int32, n), ends[k+1], degs[k+1]
		for u := range e {
			e[u] = next[u] - nextDeg[u]
		}
		ends[k] = e
	}
	filled := make([]int64, w)
	errs := make([]error, w)
	fill := func(k int) {
		left, end, placed := degs[k], ends[k], int64(0)
		n2, err := fills[k](func(u, v int, p float64) error {
			if err := CheckEdge(u, v, p); err != nil {
				return err
			}
			if u >= n || v >= n || left[u] == 0 || left[v] == 0 {
				return errUnstableScan()
			}
			iu, iv := end[u]-left[u], end[v]-left[v]
			nbrs[iu], probs[iu] = int32(v), p
			left[u]--
			nbrs[iv], probs[iv] = int32(u), p
			left[v]--
			placed += 2
			return nil
		})
		if err == nil && n2 >= 0 && n2 != n {
			err = errUnstableScan()
		}
		filled[k], errs[k] = placed, err
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(k)
		}()
	}
	fill(0)
	wg.Wait()
	sum := int64(0)
	for k, err := range errs {
		if err != nil {
			return nil, err
		}
		sum += filled[k]
	}
	// No share overflowed, so a full total means every share is exactly full.
	if sum != total {
		return nil, errUnstableScan()
	}

	g := &Graph{n: n, offsets: offsets, nbrs: nbrs, probs: probs}
	g.sortRows()
	for u := 0; u < n; u++ {
		row := nbrs[offsets[u]:offsets[u+1]]
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("uncertain: edge {%d,%d}: %w", u, row[i], ErrDuplicateEdge)
			}
		}
	}
	return g, nil
}
