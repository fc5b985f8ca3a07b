// Package bitset provides a compact, fixed-capacity bit set used by the
// deterministic clique enumerators for dense adjacency tests and candidate
// set arithmetic. It is deliberately minimal: only the operations the
// enumeration kernels need, all allocation-free once constructed.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a bit set over the universe [0, capacity). The zero value is an
// empty set with capacity 0; use New to obtain a set with room for n bits.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a set with capacity n containing every element of elems.
// Elements outside [0,n) are ignored.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		if e >= 0 && e < n {
			s.Add(e)
		}
	}
	return s
}

// Capacity returns the size of the universe.
func (s *Set) Capacity() int { return s.n }

// Words exposes the backing 64-bit words of the set (bit i of the set is
// bit i%64 of word i/64). The slice aliases the set's storage: callers may
// read it freely — this is the zero-cost view for word-parallel
// operations — and may write it only through the same ownership
// rules as the set itself. Bits at or beyond Capacity must stay zero.
func (s *Set) Words() []uint64 { return s.words }

// Add inserts i into the set. Out-of-range indices are ignored.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. Out-of-range indices are ignored.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of o. The sets must have the same
// capacity; CopyFrom panics otherwise, since a silent partial copy would
// corrupt enumeration state.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s.words, o.words)
}

// IntersectWith replaces s with s ∩ o (capacities must match).
func (s *Set) IntersectWith(o *Set) {
	if s.n != o.n {
		panic("bitset: IntersectWith capacity mismatch")
	}
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// UnionWith replaces s with s ∪ o (capacities must match).
func (s *Set) UnionWith(o *Set) {
	if s.n != o.n {
		panic("bitset: UnionWith capacity mismatch")
	}
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// DifferenceWith replaces s with s \ o (capacities must match).
func (s *Set) DifferenceWith(o *Set) {
	if s.n != o.n {
		panic("bitset: DifferenceWith capacity mismatch")
	}
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// IntersectionCount returns |s ∩ o| without materializing the intersection.
func (s *Set) IntersectionCount(o *Set) int {
	if s.n != o.n {
		panic("bitset: IntersectionCount capacity mismatch")
	}
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// Intersects reports whether s ∩ o is non-empty.
func (s *Set) Intersects(o *Set) bool {
	if s.n != o.n {
		panic("bitset: Intersects capacity mismatch")
	}
	for i := range s.words {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	if s.n != o.n {
		panic("bitset: SubsetOf capacity mismatch")
	}
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// NextAfter returns the smallest element ≥ i, or -1 if none exists.
func (s *Set) NextAfter(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls f for each element in ascending order. If f returns false,
// iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// String renders the set as "{a, b, c}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
