package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/uncertain-graphs/mule/internal/baseline"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// --- Arena allocator semantics ---

func TestArenaStackDiscipline(t *testing.T) {
	var a entryArena
	m0 := a.mark()
	s1 := a.alloc(10)
	s1 = s1.push(1, 0.5).push(2, 0.25)
	m1 := a.mark()
	s2 := a.alloc(5)
	s2 = s2.push(3, 1)
	if &s1.v[0] == &s2.v[0] || &s1.r[0] == &s2.r[0] {
		t.Fatal("overlapping allocations")
	}
	a.release(m1)
	s3 := a.alloc(5)
	s3 = s3.push(9, 1)
	// s3 reuses s2's region, s1 is untouched.
	if s1.v[0] != 1 || s1.v[1] != 2 || s1.r[1] != 0.25 {
		t.Fatalf("release corrupted earlier allocation: %v %v", s1.v, s1.r)
	}
	if s2.v[0] != 9 {
		t.Fatal("released region was not reused")
	}
	a.release(m0)
	if got := a.mark(); got != m0 {
		t.Fatalf("release did not restore the cursor: %+v", got)
	}
}

func TestArenaShrink(t *testing.T) {
	var a entryArena
	s := a.alloc(100)
	s = s.push(1, 1).push(2, 1)
	a.shrink(100, s.length()+3) // keep 2 filled + 3 reserved for pushes
	next := a.alloc(1)
	next = next.push(7, 1)
	s = s.push(3, 1).push(4, 1).push(5, 1) // within reservation
	if next.v[0] != 7 {
		t.Fatalf("reserved push room overlaps the next allocation: %v", next.v)
	}
	if s.v[4] != 5 || s.r[4] != 1 {
		t.Fatalf("pushes within the reservation failed: %v", s.v)
	}
}

func TestArenaBlockGrowth(t *testing.T) {
	var a entryArena
	// Allocate more than one block's worth without releasing; earlier
	// sets must stay valid after the arena adds blocks.
	var all []entrySet
	for i := 0; i < 10; i++ {
		s := a.alloc(arenaMinBlock / 2)
		s = s.push(int32(i), float64(i))
		all = append(all, s)
	}
	for i, s := range all {
		if s.v[0] != int32(i) || s.r[0] != float64(i) {
			t.Fatalf("set %d corrupted after block growth: %v %v", i, s.v[0], s.r[0])
		}
	}
	if len(a.vblocks) < 2 || len(a.rblocks) != len(a.vblocks) {
		t.Fatalf("expected multiple parallel blocks, got %d/%d", len(a.vblocks), len(a.rblocks))
	}
	// A single oversized request must be honored too.
	big := a.alloc(3 * arenaMinBlock)
	if cap(big.v) < 3*arenaMinBlock || cap(big.r) < 3*arenaMinBlock {
		t.Fatalf("oversized alloc caps %d/%d", cap(big.v), cap(big.r))
	}
}

// TestArenaLanesParallel pins the SoA contract: the two lanes of every
// allocation stay index-aligned across block growth, shrink, and release.
func TestArenaLanesParallel(t *testing.T) {
	var a entryArena
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := a.mark()
		want := rng.Intn(300) + 1
		s := a.alloc(want)
		if cap(s.v) != cap(s.r) || len(s.v) != 0 || len(s.r) != 0 {
			t.Fatalf("lane caps diverge: %d vs %d", cap(s.v), cap(s.r))
		}
		k := rng.Intn(want)
		for i := 0; i < k; i++ {
			s = s.push(int32(i), float64(i)/2)
		}
		if s.length() != k || len(s.v) != len(s.r) {
			t.Fatalf("lane lengths diverge: %d vs %d", len(s.v), len(s.r))
		}
		for i := 0; i < k; i++ {
			if s.v[i] != int32(i) || s.r[i] != float64(i)/2 {
				t.Fatalf("lanes misaligned at %d: v=%d r=%v", i, s.v[i], s.r[i])
			}
		}
		if rng.Intn(2) == 0 {
			a.release(m)
		}
	}
}

// --- Intersection regimes ---

// naiveIntersect is the reference two-pointer merge.
func naiveIntersect(src entrySet, row []int32, probs []float64, thr float64) entrySet {
	var out entrySet
	i, j := 0, 0
	for i < len(src.v) && j < len(row) {
		switch {
		case src.v[i] < row[j]:
			i++
		case src.v[i] > row[j]:
			j++
		default:
			if r2 := src.r[i] * probs[j]; r2 >= thr {
				out = out.push(src.v[i], r2)
			}
			i++
			j++
		}
	}
	return out
}

// rowView lays out a sorted row's view in the bit-row index over a vertex
// universe exactly as buildBitAdjacency does: the bit words, then the
// packed ranks. It returns the view and its bit-word count.
func rowView(row []int32, universe int) ([]uint64, int) {
	words := (universe + 63) / 64
	view := make([]uint64, words+rankWords(words))
	for _, v := range row {
		view[v>>6] |= 1 << (uint32(v) & 63)
	}
	fillRanks(view, words)
	return view, words
}

func randomSorted(rng *rand.Rand, n, max int) []int32 {
	seen := map[int32]bool{}
	for len(seen) < n {
		seen[int32(rng.Intn(max))] = true
	}
	out := make([]int32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// intersectCase is one (src, row) intersection over a vertex universe.
type intersectCase struct {
	name     string
	universe int
	src      entrySet
	row      []int32
	probs    []float64
	thr      float64
}

// checkIntersectModes runs c through intersectSets with the row mirrored as
// each intersect mode would mirror it — adaptive only for rows of at least
// bitsetMinRowLen neighbours, sorted never, bitset always — and compares
// the output lanes with the reference merge bit for bit, for the whole
// intersection and for the one-slot emptiness test the leaves use.
func checkIntersectModes(t *testing.T, c intersectCase) {
	t.Helper()
	want := naiveIntersect(c.src, c.row, c.probs, c.thr)
	view, words := rowView(c.row, c.universe)
	for _, mode := range []IntersectMode{IntersectAdaptive, IntersectSorted, IntersectBitset} {
		var rowBits []uint64
		if (mode == IntersectBitset && len(c.row) > 0) ||
			(mode == IntersectAdaptive && len(c.row) >= bitsetMinRowLen) {
			rowBits = view
		}
		e := &enumerator{stats: &Stats{}, arena: &entryArena{}, bits: &bitAdjacency{words: words}}
		got := e.arena.alloc(min(c.src.length(), len(c.row)))
		e.intersectSets(&got, &c.src, c.row, c.probs, rowBits, c.thr)
		probed := rowBits != nil && c.src.length() > 0
		if probed != (e.stats.BitsetOps == 1) {
			t.Fatalf("%s mode %v: BitsetOps = %d with mirrored row %v", c.name, mode, e.stats.BitsetOps, rowBits != nil)
		}
		if !sameLanes(got, want) {
			t.Fatalf("%s mode %v: got %v %v want %v %v", c.name, mode, got.v, got.r, want.v, want.r)
		}
		one := e.arena.alloc(1)
		e.intersectSets(&one, &c.src, c.row, c.probs, rowBits, c.thr)
		if !sameLanes(one, firstOf(want)) {
			t.Fatalf("%s mode %v: one-slot test got %v want first of %v", c.name, mode, one.v, want.v)
		}
	}
}

// sameLanes reports whether two sets hold the same vertices with bit-identical
// multipliers.
func sameLanes(a, b entrySet) bool {
	return slices.Equal(a.v, b.v) && slices.Equal(a.r, b.r)
}

// firstOf returns the set's first element alone, or the empty set.
func firstOf(s entrySet) entrySet {
	n := min(1, s.length())
	return entrySet{s.v[:n], s.r[:n]}
}

// dyadicLane returns a lane of n multipliers drawn from {1/8, …, 8/8}: the
// products of two are exact, so a threshold can sit exactly on one.
func dyadicLane(rng *rand.Rand, n int) []float64 {
	lane := make([]float64, n)
	for i := range lane {
		lane[i] = float64(1+rng.Intn(8)) / 8
	}
	return lane
}

// TestIntersectSetsMatchesMerge drives every regime of the intersection
// (balanced merge, row-dominant galloping, src-dominant galloping, and the
// bit-row probe under each intersect mode) against the reference merge, on
// random sorted inputs and on the edge cases of the probe's arithmetic.
func TestIntersectSetsMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ nSrc, nRow int }{
		{0, 0}, {0, 50}, {50, 0}, {1, 1},
		{20, 25},     // balanced: linear merge
		{5, 400},     // row ≫ src: gallop in row
		{400, 5},     // src ≫ row: gallop in src
		{1, 1000},    // extreme hub row
		{1000, 1},    // extreme witness list
		{63, 8 * 63}, // exactly at the ratio boundary
		{200, 500},   // long row: mirrored under the adaptive policy
	}
	for trial := 0; trial < 40; trial++ {
		for _, sh := range shapes {
			// Universes that are rarely a multiple of 64.
			universe := 4*(sh.nSrc+sh.nRow+1) + rng.Intn(64)
			srcV := randomSorted(rng, sh.nSrc, universe)
			row := randomSorted(rng, sh.nRow, universe)
			checkIntersectModes(t, intersectCase{
				name:     fmt.Sprintf("shape %+v trial %d", sh, trial),
				universe: universe,
				src:      entrySet{v: srcV, r: dyadicLane(rng, len(srcV))},
				row:      row,
				probs:    dyadicLane(rng, len(row)),
				thr:      float64(1+rng.Intn(64)) / 64,
			})
		}
	}

	// Hand-built cases aimed at the rank arithmetic: each lists a universe,
	// the src and row vertex sets, and a threshold (multipliers are 1/2 and
	// edge probabilities 1/4, so every product is exactly 1/8).
	straddle := []int32{62, 63, 64, 65, 127, 128, 191, 192}
	edge := []struct {
		name     string
		universe int
		src, row []int32
		thr      float64
	}{
		{"word boundaries", 256, []int32{0, 61, 62, 63, 64, 65, 66, 126, 127, 128, 129, 190, 191, 192, 255}, straddle, 0.1},
		{"boundaries, every src a member", 256, straddle, straddle, 0.1},
		{"vertex 0 and n-1", 130, []int32{0, 63, 64, 128, 129}, []int32{0, 1, 64, 128, 129}, 0.1},
		{"n = 1", 1, []int32{0}, []int32{0}, 0.1},
		{"n = 65, last word holds one vertex", 65, []int32{0, 63, 64}, []int32{63, 64}, 0.1},
		{"length-1 row at 0", 200, []int32{0, 5, 199}, []int32{0}, 0.1},
		{"length-1 row mid-word", 200, []int32{0, 5, 199}, []int32{5}, 0.1},
		{"length-1 row at n-1", 200, []int32{0, 5, 199}, []int32{199}, 0.1},
		{"length-1 row, no match", 200, []int32{0, 5, 199}, []int32{100}, 0.1},
		{"thr equal to r·p", 256, straddle, straddle, 0.125},
		{"thr one ulp above r·p", 256, straddle, straddle, math.Nextafter(0.125, 1)},
		{"thr one ulp below r·p", 256, straddle, straddle, math.Nextafter(0.125, 0)},
	}
	for _, c := range edge {
		src := entrySet{v: c.src, r: make([]float64, len(c.src))}
		for i := range src.r {
			src.r[i] = 0.5
		}
		probs := make([]float64, len(c.row))
		for i := range probs {
			probs[i] = 0.25
		}
		checkIntersectModes(t, intersectCase{c.name, c.universe, src, c.row, probs, c.thr})
	}

	// Ties on realized products: the threshold is set to exactly one of the
	// dyadic products r·p of a random intersection.
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300)
		srcV := randomSorted(rng, rng.Intn(universe)+1, universe)
		row := randomSorted(rng, rng.Intn(universe)+1, universe)
		src := entrySet{v: srcV, r: dyadicLane(rng, len(srcV))}
		probs := dyadicLane(rng, len(row))
		all := naiveIntersect(src, row, probs, 0)
		if all.length() == 0 {
			continue
		}
		checkIntersectModes(t, intersectCase{
			name: fmt.Sprintf("tie trial %d", trial), universe: universe,
			src: src, row: row, probs: probs, thr: all.r[rng.Intn(all.length())],
		})
	}
}

// FuzzProbeMatchesMerge checks the bit-row probe against the sorted merge
// on arbitrary sorted sets and rows: every input byte past the first
// describes one vertex of the universe — bit 0 puts it in the set, bit 1 in
// the row, bits 2–4 pick its multiplier and bits 5–7 its edge probability
// from {1/8, …, 8/8} — and the first picks the threshold k/64, so ties on
// exact products are common. The probe's output lanes must equal the
// merge's bit for bit, for the whole intersection and for the one-slot
// emptiness test.
func FuzzProbeMatchesMerge(f *testing.F) {
	f.Add([]byte{32, 3, 7, 11, 3, 0, 255})
	f.Add(append([]byte{8}, bytes.Repeat([]byte{3, 0xe7, 2, 1}, 40)...))
	f.Add(append([]byte{63}, bytes.Repeat([]byte{0xff}, 130)...))
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0x03, 0x27, 0x4b, 0x62, 0xe5}, 60)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1+bitsetMaxVertices {
			return
		}
		thr := float64(1+int(data[0])%64) / 64
		verts := data[1:]
		var src entrySet
		var row []int32
		var probs []float64
		for v, b := range verts {
			if b&1 != 0 {
				src = src.push(int32(v), float64(1+(b>>2)&7)/8)
			}
			if b&2 != 0 {
				row = append(row, int32(v))
				probs = append(probs, float64(1+b>>5)/8)
			}
		}
		if src.length() == 0 || len(row) == 0 {
			return
		}
		want := naiveIntersect(src, row, probs, thr)
		view, words := rowView(row, len(verts))
		e := &enumerator{stats: &Stats{}, bits: &bitAdjacency{words: words}}
		full := entrySet{make([]int32, 0, src.length()), make([]float64, 0, src.length())}
		e.intersectSets(&full, &src, row, probs, view, thr)
		if !sameLanes(full, want) {
			t.Fatalf("probe %v %v, merge %v %v", full.v, full.r, want.v, want.r)
		}
		one := entrySet{make([]int32, 0, 1), make([]float64, 0, 1)}
		e.intersectSets(&one, &src, row, probs, view, thr)
		if !sameLanes(one, firstOf(want)) {
			t.Fatalf("one-slot probe %v %v, merge starts %v %v", one.v, one.r, want.v, want.r)
		}
	})
}

func TestGallopBoundaries(t *testing.T) {
	row := []int32{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	for _, c := range []struct {
		from, want int
		v          int32
	}{
		{0, 0, 1}, {0, 0, 2}, {0, 1, 3}, {0, 9, 19}, {0, 9, 20}, {0, 10, 21},
		{3, 3, 1}, {3, 4, 9}, {9, 10, 99},
		{10, 10, 5}, // from already past the end
		{0, 4, 9}, {0, 10, 25}, {5, 8, 18},
	} {
		if got := gallop32(row, c.from, c.v); got != c.want {
			t.Errorf("gallop32(from=%d, v=%d) = %d, want %d", c.from, c.v, got, c.want)
		}
	}
}

// --- Allocation regression: the kernel must be allocation-free in steady
// state (the tentpole of this PR) ---

// kernelAllocsPerNode measures heap allocations per search-tree node for a
// full run on a pre-pruned graph (preprocessing — PruneAlpha's builder — is
// O(m) one-time work and measured separately by the bench pipeline).
func kernelAllocsPerNode(t *testing.T, cfg Config, alpha float64, minCalls int64) float64 {
	t.Helper()
	g := gen.BA(500, 11).PruneAlpha(alpha)
	cfg.SkipPrune = true
	var stats Stats
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		stats, err = EnumerateWith(g, alpha, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	if stats.Calls < minCalls {
		t.Fatalf("graph too small to be meaningful: %d search calls", stats.Calls)
	}
	t.Logf("%.1f allocs/run over %d calls (%.4f per node)",
		allocs, stats.Calls, allocs/float64(stats.Calls))
	return allocs / float64(stats.Calls)
}

func TestEnumerateSteadyStateAllocs(t *testing.T) {
	if perNode := kernelAllocsPerNode(t, Config{}, 0.002, 2000); perNode > 0.02 {
		t.Fatalf("Enumerate allocates %.4f per search node; the arena kernel should be ~0", perNode)
	}
}

func TestEnumerateLargeSteadyStateAllocs(t *testing.T) {
	// MinSize 2 exercises LARGE-MULE's size-pruned search path without the
	// Modani–Dey prefilter (vacuous below t=3), so the measurement isolates
	// the kernel like the plain-MULE test above.
	if perNode := kernelAllocsPerNode(t, Config{MinSize: 2}, 0.002, 1000); perNode > 0.02 {
		t.Fatalf("EnumerateLarge allocates %.4f per search node; the arena kernel should be ~0", perNode)
	}
}

func TestEnumerateLargeFilterSteadyStateAllocs(t *testing.T) {
	// MinSize 3 runs the Modani–Dey prefilter too. On CSR + scratch arrays
	// the filter costs a handful of whole-run allocations (the scratch and
	// the rebuilt graph), so the per-node rate must stay at the kernel's
	// ~0 steady state — the per-vertex hash maps it used to build showed up
	// as thousands of allocs per run.
	if perNode := kernelAllocsPerNode(t, Config{MinSize: 3}, 0.002, 500); perNode > 0.05 {
		t.Fatalf("LARGE-MULE with the prefilter allocates %.4f per search node; the CSR rebuild should be ~0", perNode)
	}
}

// bitIndexAllocs is what the bit-row index may allocate per run: its header,
// its per-vertex row table, and the slice box returnWords hands the word
// pool. The bit words and the ranks share one pooled buffer.
const bitIndexAllocs = 3

// steadyAllocs returns the fewest heap allocations one call of f makes over
// runs calls after a warm-up. The race detector's sync.Pool drops a random
// quarter of the buffers put back, so a single call may re-allocate pooled
// storage; the fewest is the steady state, which every call hits without
// -race.
func steadyAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	fewest := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestDenseBitRowsSteadyStateAllocs runs the dense-gnp300 kernel cell — a
// G(300, 0.3) block at α = 0.25, where every row is long enough to be
// mirrored — under the adaptive and bitset modes. The whole run may
// allocate only bitIndexAllocs more objects than the same run on the sorted
// kernels, which builds no index: the rank lanes, like the bit words, must
// come from the pools. (A per-node bound cannot see this: the run has
// ~500k search nodes.)
func TestDenseBitRowsSteadyStateAllocs(t *testing.T) {
	const alpha = 0.25
	g := denseUncertain(300, 0.3, 1).PruneAlpha(alpha)
	runAllocs := func(mode IntersectMode) (uint64, Stats) {
		var stats Stats
		allocs := steadyAllocs(10, func() {
			var err error
			stats, err = EnumerateWith(g, alpha, nil, Config{SkipPrune: true, Intersect: mode})
			if err != nil {
				t.Fatal(err)
			}
		})
		return allocs, stats
	}
	sorted, _ := runAllocs(IntersectSorted)
	for _, mode := range []IntersectMode{IntersectAdaptive, IntersectBitset} {
		allocs, stats := runAllocs(mode)
		t.Logf("%v: %d allocs/run over %d calls (sorted: %d)", mode, allocs, stats.Calls, sorted)
		if stats.BitsetOps == 0 {
			t.Fatalf("%v: no intersection probed a bit row", mode)
		}
		if allocs > sorted+bitIndexAllocs {
			t.Fatalf("%v: %d allocs/run, more than the sorted run's %d plus %d for the bit-row index",
				mode, allocs, sorted, bitIndexAllocs)
		}
	}
}

// TestWorkStealingSteadyStateAllocs runs the dense-gnp300 kernel cell on
// the work-stealing engine with 2 workers. Its small subtrees recurse
// inline on the slot's scratch clique, which must have room to grow: if
// every inline subtree reallocates C, a run allocates ~67k times. Its
// frames, lanes and set-up allocate 112–127 times (the fewest of 10 runs,
// over 40 runs of the test on 2 CPUs), or 122–134 under -race, so the
// bound leaves room for scheduling noise but not for a frame path that
// allocates several times more.
func TestWorkStealingSteadyStateAllocs(t *testing.T) {
	const alpha = 0.25
	g := denseUncertain(300, 0.3, 1).PruneAlpha(alpha)
	var stats Stats
	allocs := steadyAllocs(10, func() {
		var err error
		stats, err = EnumerateWith(g, alpha, nil, Config{SkipPrune: true, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d allocs/run over %d calls", allocs, stats.Calls)
	if allocs > 300 {
		t.Fatalf("work stealing allocates %d times a run; the scratch clique should absorb the inline recursion", allocs)
	}
}

// --- Output equivalence: the arena kernel against the independent DFS-NOIP
// implementation, plain and LARGE, over 50 random graphs ---

func TestArenaKernelMatchesNOIPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	densities := []float64{0.15, 0.3, 0.5, 0.8}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(36)
		g := randomDyadic(n, densities[trial%len(densities)], rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		all := baseline.CollectNOIP(g, alpha)
		got := mustCollect(t, g, alpha, Config{})
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d (n=%d, α=%v): arena kernel diverges from DFS-NOIP\nMULE = %v\nNOIP = %v",
				trial, n, alpha, got, all)
		}
		// LARGE-MULE must equal the size-filtered full output.
		minSize := 3
		var want [][]int
		for _, c := range all {
			if len(c) >= minSize {
				want = append(want, c)
			}
		}
		large := mustCollect(t, g, alpha, Config{MinSize: minSize})
		if len(large) != len(want) || (len(want) > 0 && !reflect.DeepEqual(large, want)) {
			t.Fatalf("trial %d: LARGE-MULE diverges\ngot  = %v\nwant = %v", trial, large, want)
		}
	}
}

// --- Emission ordering: the relabeled path must hand the visitor sorted
// cliques, and identity-resolving orderings must keep working ---

func TestRelabeledEmissionsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	for trial := 0; trial < 10; trial++ {
		g := randomDyadic(8+rng.Intn(20), 0.5, rng)
		for _, ord := range []Ordering{OrderDegree, OrderDegeneracy, OrderRandom} {
			_, err := EnumerateWith(g, 0.25, func(c []int, _ float64) bool {
				if !sort.IntsAreSorted(c) {
					t.Fatalf("ordering %v emitted unsorted clique %v", ord, c)
				}
				return true
			}, Config{Ordering: ord, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestIsIdentityOrder(t *testing.T) {
	if !isIdentityOrder(nil) || !isIdentityOrder([]int{0, 1, 2}) {
		t.Error("identity permutations misclassified")
	}
	if isIdentityOrder([]int{1, 0, 2}) || isIdentityOrder([]int{0, 2, 1}) {
		t.Error("non-identity permutations misclassified")
	}
}

// TestIdentityResolvingOrderingStillCorrect pins the identity fast path: a
// graph already numbered in ascending degree makes OrderDegree resolve to
// the identity permutation, which skips the relabel and the per-emission
// sort — the output must be identical to the natural run anyway.
func TestIdentityResolvingOrderingStillCorrect(t *testing.T) {
	// Star with the hub last: leaves 0..3 have degree 1, hub 4 degree 4,
	// so the stable degree sort keeps 0,1,2,3,4 — the identity.
	g, err := uncertain.FromEdges(5, []uncertain.Edge{
		{U: 0, V: 4, P: 0.75}, {U: 1, V: 4, P: 0.75},
		{U: 2, V: 4, P: 0.75}, {U: 3, V: 4, P: 0.75},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mustCollect(t, g, 0.5, Config{})
	got := mustCollect(t, g, 0.5, Config{Ordering: OrderDegree})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("identity-resolving degree order changed output: %v vs %v", got, want)
	}
}
