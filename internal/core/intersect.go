package core

import "math/bits"

// Sorted-set intersection for GenerateI/GenerateX (Algorithms 3 and 4).
// Both algorithms intersect a sorted entry set (candidates or witnesses)
// with u's sorted adjacency row, extending each surviving multiplier by the
// edge probability and filtering against the threshold. The same kernel
// answers the leaf witness test (mule.go): handed a one-slot output, it
// stops at the first survivor, so a leaf learns whether X′ is empty without
// building it.
//
// Three regimes, chosen per intersection:
//
//   - When u's row is mirrored in the rank-indexed bit-row index
//     (bitrows.go), the kernel probes: for each set element v it tests v's
//     bit in the row and, on a hit, reads p(u,v) at the position the row's
//     rank and a popcount give. The cost is O(1) per set element, whatever
//     the row length or the vertex span of the set — MULE's O(1) per
//     candidate, kept on the dense nodes where almost every member
//     survives.
//   - On unmirrored rows of balanced length a linear two-pointer merge is
//     optimal.
//   - On hub-heavy power-law graphs the two sides routinely differ by
//     orders of magnitude — a short tail intersected with a hub's
//     multi-thousand-entry row — and the merge wastes its time stepping
//     through the long side one element at a time. When the lengths differ
//     by gallopRatio or more, the kernel instead walks the short side and
//     advances through the long side by galloping (exponential search
//     followed by binary search), making each step O(log gap).
//
// Every regime multiplies the same two floats and compares the product with
// the same hoisted threshold, so membership decisions are bit-identical
// across regimes and intersect modes, at the α boundary too.

// gallopRatio is the length disparity at which the merge switches to
// galloping. Below ~8× the branchy binary search costs more than the linear
// steps it replaces.
const gallopRatio = 8

// intersectSets appends to dst every vertex common to src (a sorted entry
// set) and row (sorted adjacency with parallel probs) whose extended
// multiplier src.r[i]·probs[j] still meets thr, stopping early once dst is
// full: the caller sizes dst's capacity to at least min(src.length(),
// len(row)) for the whole intersection, or to one for an emptiness test. rowBits, when
// non-nil, is the row's view in the bit-row index (bitrows.go) and selects
// the probe; row and probs must then be the full row, since ranks count from
// its start. dst and src are passed by pointer so the hot per-node call
// keeps its arguments in registers — by-value entrySets (six words each)
// spill to the stack on every search node.
//
// thr is the hoisted threshold α/clq(C∪{u}): comparing r' ≥ α/q' once per
// match replaces the q'·r' ≥ α multiply of the textbook formulation. The
// two comparisons can disagree by at most one ulp of rounding on the
// boundary; every ordering, engine, and regime uses the same rule, so
// results stay internally consistent.
func (e *enumerator) intersectSets(dst, src *entrySet, row []int32, probs []float64, rowBits []uint64, thr float64) {
	if len(src.v) == 0 || len(row) == 0 {
		return
	}
	if rowBits != nil {
		e.stats.BitsetOps++
		probeRow(dst, src, probs, rowBits, e.bits.words, thr)
		return
	}
	// Re-slicing the secondary lanes to the primary lane's length lets the
	// compiler drop their bounds checks inside the loops (the AoS layout
	// got that for free; SoA has to state the lane parallelism explicitly).
	// Survivors are written by index through the capacity-extended output
	// lanes — one cursor bump instead of two append length updates.
	srcV := src.v
	srcR := src.r[:len(srcV)]
	probs = probs[:len(row)]
	k := len(dst.v)
	dv := dst.v[:cap(dst.v)]
	dr := dst.r[:cap(dst.v)]
	switch {
	case len(row) >= gallopRatio*len(srcV):
		j := 0
		for i, v := range srcV {
			j = gallop32(row, j, v)
			if j == len(row) {
				break
			}
			if row[j] == v {
				if r2 := srcR[i] * probs[j]; r2 >= thr {
					dv[k] = v
					dr[k] = r2
					if k++; k == len(dv) {
						break
					}
				}
				j++
			}
		}
	case len(srcV) >= gallopRatio*len(row):
		i := 0
		for j, v := range row {
			i = gallop32(srcV, i, v)
			if i == len(srcV) {
				break
			}
			if srcV[i] == v {
				if r2 := srcR[i] * probs[j]; r2 >= thr {
					dv[k] = v
					dr[k] = r2
					if k++; k == len(dv) {
						break
					}
				}
				i++
			}
		}
	default:
		i, j := 0, 0
	merge:
		for i < len(srcV) && j < len(row) {
			switch {
			case srcV[i] < row[j]:
				i++
			case srcV[i] > row[j]:
				j++
			default:
				if r2 := srcR[i] * probs[j]; r2 >= thr {
					dv[k] = srcV[i]
					dr[k] = r2
					if k++; k == len(dv) {
						break merge
					}
				}
				i++
				j++
			}
		}
	}
	dst.v, dst.r = dv[:k], dr[:k]
}

// probeRow is the probe regime of intersectSets: view is the row's bit
// words (the first words entries) followed by its packed uint16 ranks, and
// probs is the full row's probability lane. Shifting v's bit to the top of
// its word leaves exactly the row's neighbours ≤ v there, so the sign bit
// is v's membership and the popcount minus one is v's offset past
// rank[v>>6] in the row. The cost is O(1) per src element and independent
// of the row.
func probeRow(dst, src *entrySet, probs []float64, view []uint64, words int, thr float64) {
	rowBits := view[:words]
	ranks := view[words:]
	srcV := src.v
	srcR := src.r[:len(srcV)]
	k := len(dst.v)
	dv := dst.v[:cap(dst.v)]
	dr := dst.r[:cap(dst.v)]
	for i, v := range srcV {
		w := uint32(v) >> 6
		upTo := rowBits[w] << (63 - uint32(v)&63)
		if int64(upTo) >= 0 {
			continue // v is not a neighbour
		}
		j := int(uint16(ranks[w>>2]>>(16*(w&3)))) + bits.OnesCount64(upTo) - 1
		if r2 := srcR[i] * probs[j]; r2 >= thr {
			dv[k] = v
			dr[k] = r2
			if k++; k == len(dv) {
				break
			}
		}
	}
	dst.v, dst.r = dv[:k], dr[:k]
}

// gallop32 returns the smallest k ≥ from with xs[k] ≥ v, or len(xs):
// exponential probes double the step until they overshoot, then a binary
// search pins the boundary inside the last doubling window.
func gallop32(xs []int32, from int, v int32) int {
	n := len(xs)
	if from >= n || xs[from] >= v {
		return from
	}
	lo, step := from, 1
	hi := from + step
	for hi < n && xs[hi] < v {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > n {
		hi = n
	}
	// xs[lo] < v, and hi == n or xs[hi] ≥ v.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
