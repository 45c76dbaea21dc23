// Package bitset provides a fixed-capacity bit set used for destination
// sets and per-port reachability masks. Sets are value types backed by a
// small slice of words; all operations treat out-of-range bits as absent.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bit set over the integers [0, Cap()). The zero value is an empty
// set of capacity 0; use New to obtain a set able to hold n bits.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for bits [0, n).
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a set of capacity n containing exactly the given members.
func FromSlice(n int, members []int) Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Over returns an empty set of capacity n stored in words, which must hold
// at least (n+63)/64 words: a set in storage its caller owns. The set
// aliases words, so the caller must not reuse them while the set is read.
func Over(words []uint64, n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	w := words[:(n+wordBits-1)/wordBits]
	clear(w)
	return Set{words: w, n: n}
}

// Cap returns the capacity of the set (the exclusive upper bound on members).
func (s Set) Cap() int { return s.n }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// Add inserts i into the set. It panics if i is out of range.
func (s Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. It panics if i is out of range.
func (s Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is a member. Out-of-range values are never members.
func (s Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t have identical members.
// Sets of different capacity are equal if their members coincide.
func (s Set) Equal(t Set) bool {
	longer, shorter := s.words, t.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	for i, w := range shorter {
		if w != longer[i] {
			return false
		}
	}
	for _, w := range longer[len(shorter):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// And returns the intersection of s and t as a new set with s's capacity.
func (s Set) And(t Set) Set {
	r := New(s.n)
	for i := range r.words {
		if i < len(t.words) {
			r.words[i] = s.words[i] & t.words[i]
		}
	}
	return r
}

// AndNot returns s minus the members of t as a new set with s's capacity.
func (s Set) AndNot(t Set) Set {
	r := New(s.n)
	for i := range r.words {
		r.words[i] = s.words[i]
		if i < len(t.words) {
			r.words[i] &^= t.words[i]
		}
	}
	return r
}

// Or returns the union of s and t as a new set with s's capacity.
// Members of t beyond s's capacity are dropped.
func (s Set) Or(t Set) Set {
	r := New(s.n)
	for i := range r.words {
		r.words[i] = s.words[i]
		if i < len(t.words) {
			r.words[i] |= t.words[i]
		}
	}
	r.trim()
	return r
}

// OrIn adds all members of t to s in place, dropping members beyond s's
// capacity.
func (s Set) OrIn(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] |= t.words[i]
		}
	}
	s.trim()
}

// Intersects reports whether s and t share at least one member.
func (s Set) Intersects(t Set) bool {
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s is also a member of t. It is
// a word-wise test (no per-member iteration, no allocation), used on hot
// paths in place of materializing s.AndNot(t) just to check emptiness.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s.words {
		if i < len(t.words) {
			w &^= t.words[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// trim clears any bits at or beyond capacity that crept in via word ops.
func (s Set) trim() {
	if len(s.words) == 0 {
		return
	}
	rem := s.n % wordBits
	if rem != 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Members returns the members in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls fn for each member in increasing order.
func (s Set) ForEach(fn func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// First returns the smallest member, or -1 if the set is empty.
func (s Set) First() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Words returns the backing words (little-endian bit order). The returned
// slice aliases the set and must not be modified by callers that want the
// set unchanged.
func (s Set) Words() []uint64 { return s.words }

// SetWords overwrites the set contents from the given words, dropping any
// bits beyond capacity.
func (s Set) SetWords(w []uint64) {
	for i := range s.words {
		if i < len(w) {
			s.words[i] = w[i]
		} else {
			s.words[i] = 0
		}
	}
	s.trim()
}

// String renders the set as {a, b, c}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
