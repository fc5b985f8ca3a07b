package bitset

import (
	"math/rand"
	"testing"
)

// The bitset package backs the deterministic Bron–Kerbosch oracle
// (internal/det). These property tests drive long random operation
// sequences against a map[int]bool model, so every exported operation —
// including the Words view — stays bit-for-bit faithful to set semantics.

// modelCheck verifies s against the model exhaustively over the universe.
func modelCheck(t *testing.T, step int, s *Set, model map[int]bool) {
	t.Helper()
	count := 0
	for v := range model {
		count++
		if !s.Contains(v) {
			t.Fatalf("step %d: model has %d, set does not", step, v)
		}
	}
	if got := s.Count(); got != count {
		t.Fatalf("step %d: Count = %d, model has %d", step, got, count)
	}
	if s.Empty() != (count == 0) {
		t.Fatalf("step %d: Empty = %v with %d elements", step, s.Empty(), count)
	}
	for _, v := range s.Slice() {
		if !model[v] {
			t.Fatalf("step %d: set has %d, model does not", step, v)
		}
	}
	// Words must agree with Contains bit for bit, with no stray bits at or
	// beyond capacity.
	for wi, w := range s.Words() {
		for b := 0; b < 64; b++ {
			v := wi*64 + b
			bit := w&(1<<uint(b)) != 0
			if v >= s.Capacity() {
				if bit {
					t.Fatalf("step %d: stray bit %d beyond capacity %d", step, v, s.Capacity())
				}
				continue
			}
			if bit != model[v] {
				t.Fatalf("step %d: word bit %d = %v, model = %v", step, v, bit, model[v])
			}
		}
	}
}

func TestRandomOpsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		s := New(n)
		model := map[int]bool{}
		for step := 0; step < 400; step++ {
			v := rng.Intn(n)
			switch rng.Intn(6) {
			case 0, 1:
				s.Add(v)
				model[v] = true
			case 2:
				s.Remove(v)
				delete(model, v)
			case 3:
				// NextAfter must return the smallest model element ≥ v.
				want := -1
				for u := v; u < n; u++ {
					if model[u] {
						want = u
						break
					}
				}
				if got := s.NextAfter(v); got != want {
					t.Fatalf("trial %d step %d: NextAfter(%d) = %d, want %d", trial, trial, v, got, want)
				}
			case 4:
				// ForEach must visit exactly the model, ascending.
				prev := -1
				s.ForEach(func(u int) bool {
					if u <= prev {
						t.Fatalf("ForEach not ascending: %d after %d", u, prev)
					}
					if !model[u] {
						t.Fatalf("ForEach visited %d not in model", u)
					}
					prev = u
					return true
				})
			case 5:
				s.Clear()
				model = map[int]bool{}
			}
		}
		modelCheck(t, trial, s, model)
	}
}

// TestAlgebraMatchesModel drives the two-set operations (the kernel's AND
// lives under IntersectWith) against model set algebra.
func TestAlgebraMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(654))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Add(i)
				ma[i] = true
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
				mb[i] = true
			}
		}
		inter := a.Clone()
		inter.IntersectWith(b)
		union := a.Clone()
		union.UnionWith(b)
		diff := a.Clone()
		diff.DifferenceWith(b)
		wantInter, wantUnion, wantDiff := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for v := range ma {
			wantUnion[v] = true
			if mb[v] {
				wantInter[v] = true
			} else {
				wantDiff[v] = true
			}
		}
		for v := range mb {
			wantUnion[v] = true
		}
		modelCheck(t, trial, inter, wantInter)
		modelCheck(t, trial, union, wantUnion)
		modelCheck(t, trial, diff, wantDiff)
		if got := a.IntersectionCount(b); got != len(wantInter) {
			t.Fatalf("IntersectionCount = %d, want %d", got, len(wantInter))
		}
		if a.Intersects(b) != (len(wantInter) > 0) {
			t.Fatal("Intersects disagrees with IntersectionCount")
		}
		if diff.Intersects(b) {
			t.Fatal("difference still intersects the subtrahend")
		}
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) || !a.SubsetOf(union) {
			t.Fatal("subset relations violated")
		}
	}
}
