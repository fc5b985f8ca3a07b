package uncertain

import (
	"fmt"
	"math"
)

// EdgeScan feeds a stream of probabilistic edges to emit, one call per edge,
// and returns the graph's vertex count (declared by the input, or inferred by
// the producer as max endpoint + 1). An error returned by emit must be
// propagated back unchanged.
//
// The scan must be replayable: FromEdgeScanner invokes it twice — a counting
// pass and a fill pass — and both invocations must produce the same edges in
// the same order and report the same vertex count. File-backed scanners
// replay by re-reading the file; in-memory scanners replay a buffered edge
// list.
type EdgeScan func(emit func(u, v int, p float64) error) (n int, err error)

// errUnstableScan reports an EdgeScan whose two passes disagreed.
func errUnstableScan() error {
	return fmt.Errorf("uncertain: edge scanner is not replayable: passes disagree")
}

// validEdge reports the error FromEdgeScanner returns for an edge that no
// Graph may hold: a self-loop, a negative endpoint, or a probability outside
// (0, 1].
func validEdge(u, v int, p float64) error {
	if u == v {
		return fmt.Errorf("uncertain: edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("uncertain: edge {%d,%d}: negative endpoint: %w", u, v, ErrVertexRange)
	}
	return validProb(p)
}

// FromEdgeScanner builds a Graph directly into its final CSR form from a
// replayable edge stream, without materializing an edge list or a Builder
// hash map: the first pass validates each edge and counts per-vertex degrees,
// the second (FromDegrees) fills the adjacency arrays in place. Peak memory
// beyond the finished CSR is one int32 per vertex. Duplicate edges are
// detected after the per-row sort (adjacent equal neighbors) and reported as
// a wrapped ErrDuplicateEdge, matching Builder.AddEdge semantics.
func FromEdgeScanner(scan EdgeScan) (*Graph, error) {
	// Pass 1: validate endpoints and probabilities, count degrees. The degree
	// array grows with the largest endpoint seen, by append so that growth
	// is geometric: endpoints that rise as the input is read cost O(n)
	// copying in total. The scanner's vertex count (unknown until the pass
	// completes) extends it afterwards, so declared isolated vertices cost
	// nothing during the scan.
	var deg []int32
	edges := int64(0)
	n, err := scan(func(u, v int, p float64) error {
		if err := validEdge(u, v, p); err != nil {
			return err
		}
		if hi := max(u, v); hi >= len(deg) {
			deg = append(deg, make([]int32, hi+1-len(deg))...)
		}
		deg[u]++
		deg[v]++
		edges++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = len(deg) // max endpoint + 1
	}
	if len(deg) > n {
		return nil, fmt.Errorf("uncertain: edge endpoint %d outside [0,%d): %w", len(deg)-1, n, ErrVertexRange)
	}
	if 2*edges > math.MaxInt32 {
		return nil, fmt.Errorf("uncertain: %d edges exceed the CSR index range", edges)
	}
	return FromDegrees(append(deg, make([]int32, n-len(deg))...), scan)
}

// FromDegrees builds a Graph on len(deg) vertices in one fill pass, given
// each vertex's degree from an earlier pass over the same edges: offsets
// come from deg, and fill must emit exactly the edges that deg counted, in
// any order. Every edge is validated as it is placed (self-loops, endpoint
// range, probability), and a fill that overflows a row or leaves one short
// fails as a non-replayable scan instead of corrupting the CSR. deg is
// consumed: it becomes the per-row fill cursor. FromEdgeScanner is a
// counting pass followed by this; graphio's component batches count degrees
// while labelling components and call it once per batch.
func FromDegrees(deg []int32, fill EdgeScan) (*Graph, error) {
	n := len(deg)
	offsets := make([]int32, n+1)
	total := int64(0)
	for u, d := range deg {
		total += int64(d)
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("uncertain: %d edge endpoints exceed the CSR index range", total)
		}
		offsets[u+1] = int32(total)
	}
	nbrs := make([]int32, total)
	probs := make([]float64, total)

	// deg doubles as the per-row fill cursor; the offsets array bounds every
	// write, so a scanner that emits different edges on replay is caught
	// instead of corrupting neighbor rows.
	clear(deg)
	filled := int64(0)
	n2, err := fill(func(u, v int, p float64) error {
		if err := validEdge(u, v, p); err != nil {
			return err
		}
		if u >= n || v >= n {
			return errUnstableScan()
		}
		iu := offsets[u] + deg[u]
		iv := offsets[v] + deg[v]
		if iu >= offsets[u+1] || iv >= offsets[v+1] {
			return errUnstableScan()
		}
		nbrs[iu], probs[iu] = int32(v), p
		deg[u]++
		nbrs[iv], probs[iv] = int32(u), p
		deg[v]++
		filled += 2
		return nil
	})
	if err != nil {
		return nil, err
	}
	// No row overflowed, so a full total means every row is exactly full.
	if (n2 >= 0 && n2 != n) || filled != total {
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
