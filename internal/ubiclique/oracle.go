package ubiclique

import "math/bits"

// CollectBrute enumerates α-maximal bicliques directly from the definition:
// it scans every pair of non-empty vertex subsets and keeps the pairs that
// pass IsAlphaMaximalBiclique. Exponential in |L|+|R|; it exists as the
// ground-truth oracle for tests and requires |L|, |R| ≤ 20.
func CollectBrute(g *Bipartite, alpha float64) []Biclique {
	nL, nR := g.NumLeft(), g.NumRight()
	if nL > 20 || nR > 20 {
		panic("ubiclique: CollectBrute limited to 20 vertices per side")
	}
	var out []Biclique
	for maskL := uint32(1); maskL < 1<<uint(nL); maskL++ {
		A := maskToSet(maskL)
		for maskR := uint32(1); maskR < 1<<uint(nR); maskR++ {
			B := maskToSet(maskR)
			q := g.BicliqueProb(A, B)
			if q < alpha {
				continue
			}
			if g.IsAlphaMaximalBiclique(A, B, alpha) {
				out = append(out, Biclique{Left: A, Right: B, Prob: q})
			}
		}
	}
	SortBicliques(out)
	return out
}

func maskToSet(mask uint32) []int {
	out := make([]int, 0, bits.OnesCount32(mask))
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		out = append(out, v)
		mask &^= 1 << uint(v)
	}
	return out
}
