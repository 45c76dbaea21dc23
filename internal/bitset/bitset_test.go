package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() || s.Count() != 0 || s.Cap() != 130 {
		t.Fatalf("fresh set not empty: %v", s)
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		s.Add(i)
	}
	if s.Count() != 7 {
		t.Fatalf("count = %d, want 7", s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 129} {
		if !s.Has(i) {
			t.Errorf("missing member %d", i)
		}
	}
	for _, i := range []int{2, 62, 66, 128, -1, 130, 1000} {
		if s.Has(i) {
			t.Errorf("unexpected member %d", i)
		}
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 6 {
		t.Fatalf("remove failed: %v", s)
	}
	if s.First() != 0 {
		t.Fatalf("First = %d, want 0", s.First())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	New(10).Add(10)
}

func TestMembersRoundTrip(t *testing.T) {
	members := []int{3, 17, 64, 100}
	s := FromSlice(128, members)
	if got := s.Members(); !reflect.DeepEqual(got, members) {
		t.Fatalf("Members = %v, want %v", got, members)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3, 50, 99})
	b := FromSlice(100, []int{2, 3, 4, 98})

	if got := a.And(b).Members(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("And = %v", got)
	}
	if got := a.AndNot(b).Members(); !reflect.DeepEqual(got, []int{1, 50, 99}) {
		t.Errorf("AndNot = %v", got)
	}
	if got := a.Or(b).Members(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 50, 98, 99}) {
		t.Errorf("Or = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	if a.Intersects(FromSlice(100, []int{5, 6})) {
		t.Error("disjoint Intersects = true")
	}
}

func TestOrInAndClone(t *testing.T) {
	a := FromSlice(64, []int{1})
	c := a.Clone()
	a.OrIn(FromSlice(64, []int{2}))
	if !a.Has(2) {
		t.Fatal("OrIn did not add")
	}
	if c.Has(2) {
		t.Fatal("Clone aliases original")
	}
}

// TestOverUsesCallerWords checks that Over builds an empty set in the
// caller's words, clearing what they held.
func TestOverUsesCallerWords(t *testing.T) {
	words := []uint64{^uint64(0), 5}
	s := Over(words, 40)
	if !s.Empty() || s.Cap() != 40 || len(s.Words()) != 1 || &s.Words()[0] != &words[0] {
		t.Fatalf("Over gave %v cap %d over %d words", s, s.Cap(), len(s.Words()))
	}
	s.Add(39)
	if words[0] != 1<<39 || words[1] != 5 {
		t.Fatalf("words after Add = %x, want the set's bit in the first word only", words)
	}
}

func TestEqualDifferentCaps(t *testing.T) {
	a := FromSlice(10, []int{1, 5})
	b := FromSlice(1000, []int{1, 5})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("same members, different caps, not Equal")
	}
	b.Add(900)
	if a.Equal(b) {
		t.Fatal("differing members Equal")
	}
}

func TestForEachOrder(t *testing.T) {
	s := FromSlice(256, []int{255, 0, 128, 64})
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 64, 128, 255}) {
		t.Fatalf("ForEach order = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice(10, []int{1, 3}).String(); got != "{1, 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	s := FromSlice(70, []int{0, 65, 69})
	s2 := New(70)
	s2.SetWords(s.Words())
	if !s.Equal(s2) {
		t.Fatal("SetWords(Words()) not identity")
	}
	// Out-of-capacity bits must be dropped.
	s3 := New(3)
	s3.SetWords([]uint64{0xFF})
	if got := s3.Members(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("SetWords kept out-of-range bits: %v", got)
	}
}

// Property: for random member slices, the set behaves like a map[int]bool.
func TestQuickAgainstMap(t *testing.T) {
	f := func(raw []uint16, capSeed uint8) bool {
		n := int(capSeed)%500 + 1
		ref := map[int]bool{}
		s := New(n)
		for _, r := range raw {
			i := int(r) % n
			if ref[i] {
				s.Remove(i)
				delete(ref, i)
			} else {
				s.Add(i)
				ref[i] = true
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Has(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: And/Or/AndNot match element-wise set logic.
func TestQuickAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSet := func(n int) Set {
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		return s
	}
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(300) + 1
		a, b := randSet(n), randSet(n)
		and, or, andnot := a.And(b), a.Or(b), a.AndNot(b)
		for i := 0; i < n; i++ {
			if and.Has(i) != (a.Has(i) && b.Has(i)) {
				t.Fatalf("And mismatch at %d", i)
			}
			if or.Has(i) != (a.Has(i) || b.Has(i)) {
				t.Fatalf("Or mismatch at %d", i)
			}
			if andnot.Has(i) != (a.Has(i) && !b.Has(i)) {
				t.Fatalf("AndNot mismatch at %d", i)
			}
		}
	}
}

func BenchmarkAddHasRemove(b *testing.B) {
	s := New(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := i & 255
		s.Add(v)
		if !s.Has(v) {
			b.Fatal("missing")
		}
		s.Remove(v)
	}
}

func BenchmarkAndMembers(b *testing.B) {
	x := FromSlice(256, []int{1, 50, 100, 200, 255})
	y := New(256)
	for i := 0; i < 256; i += 2 {
		y.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.And(y).Members()
	}
}
