package uncertain

import (
	"math"
	"slices"
	"testing"
)

// fuzzProbs are the probabilities FuzzFromSortedAdjacency draws from: three
// valid ones, so that reciprocal slots often agree, and three that
// validProb rejects.
var fuzzProbs = []float64{0.5, 1, 0.25, 0, 1.5, math.NaN()}

// FuzzFromSortedAdjacency feeds FromSortedAdjacency CSR arrays that pass its
// length checks and nothing else: at most 8 vertices, inner offsets that may
// decrease or run past the end, neighbours that may be out of range,
// repeated or unsorted, and probabilities that may be 0, above 1 or NaN.
// Byte k of inner is offsets[k+1] and byte i of nbrs is nbrs[i], both read
// as int8; byte i of probs picks probs[i] from fuzzProbs. It must return an
// error rather than panic, wellFormed must accept exactly the inputs fault
// finds nothing wrong with, and an accepted graph must be the one FromEdges
// builds from its edges.
func FuzzFromSortedAdjacency(f *testing.F) {
	f.Add(uint8(3), []byte{3, 1}, []byte{1, 2, 0}, []byte{0, 0, 0})
	f.Add(uint8(2), []byte{5}, []byte{1, 0, 0}, []byte{0, 0, 0})
	f.Add(uint8(3), []byte{2, 4}, []byte{1, 2, 0, 2, 0, 1}, []byte{0, 1, 0, 2, 1, 2})
	f.Add(uint8(4), []byte{1, 1, 2}, []byte{1, 0, 0}, []byte{2, 2, 2})
	f.Fuzz(func(t *testing.T, n8 uint8, inner, nbrBytes, probBytes []byte) {
		n := int(n8 % 9)
		m := min(len(nbrBytes), 32)
		if n == 0 {
			m = 0
		}
		offsets := make([]int32, n+1)
		for k := 1; k < n; k++ {
			if k-1 < len(inner) {
				offsets[k] = int32(int8(inner[k-1]))
			}
		}
		offsets[n] = int32(m)
		nbrs := make([]int32, m)
		probs := make([]float64, m)
		for i := range nbrs {
			nbrs[i] = int32(int8(nbrBytes[i]))
			probs[i] = fuzzProbs[0]
			if i < len(probBytes) {
				probs[i] = fuzzProbs[int(probBytes[i])%len(fuzzProbs)]
			}
		}
		raw := &Graph{n: n, offsets: offsets, nbrs: nbrs, probs: probs}
		fault := raw.fault()
		if raw.wellFormed() != (fault == nil) {
			t.Fatalf("offsets %v nbrs %v probs %v: wellFormed %v, fault %v",
				offsets, nbrs, probs, raw.wellFormed(), fault)
		}
		g, err := FromSortedAdjacency(n, offsets, nbrs, probs)
		if (err == nil) != (fault == nil) || (err == nil) != (g != nil) {
			t.Fatalf("offsets %v nbrs %v probs %v: graph %v, error %v, fault %v",
				offsets, nbrs, probs, g != nil, err, fault)
		}
		if err != nil {
			return
		}
		want, err := FromEdges(n, g.Edges())
		if err != nil {
			t.Fatalf("FromEdges of an accepted graph's edges: %v", err)
		}
		if g.n != want.n || !slices.Equal(g.offsets, want.offsets) ||
			!slices.Equal(g.nbrs, want.nbrs) || !slices.Equal(g.probs, want.probs) {
			t.Fatalf("accepted offsets %v nbrs %v probs %v, but FromEdges builds %v %v %v",
				offsets, nbrs, probs, want.offsets, want.nbrs, want.probs)
		}
	})
}
