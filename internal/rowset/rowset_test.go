package rowset

import (
	"math/rand"
	"slices"
	"testing"
)

// reference is a model implementation over map[int32]struct{}.
type reference map[int32]struct{}

func (r reference) sorted() []int32 {
	out := make([]int32, 0, len(r))
	for id := range r {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func TestBitmapBasics(t *testing.T) {
	b := New(130) // spans three words, last partial
	for _, id := range []int32{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Contains(id) {
			t.Fatalf("fresh bitmap contains %d", id)
		}
		b.Add(id)
		if !b.Contains(id) {
			t.Fatalf("Add(%d) not visible", id)
		}
	}
	if got := b.Popcount(); got != 8 {
		t.Fatalf("Popcount = %d, want 8", got)
	}
	b.Remove(64)
	if b.Contains(64) || b.Popcount() != 7 {
		t.Fatalf("Remove(64) failed: contains=%v pop=%d", b.Contains(64), b.Popcount())
	}
	want := []int32{0, 1, 63, 65, 127, 128, 129}
	if got := b.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatalf("AppendTo = %v, want %v", got, want)
	}
	var walked []int32
	b.ForEach(func(id int32) bool { walked = append(walked, id); return true })
	if !slices.Equal(walked, want) {
		t.Fatalf("ForEach = %v, want %v", walked, want)
	}
	var first []int32
	b.ForEach(func(id int32) bool { first = append(first, id); return len(first) < 3 })
	if !slices.Equal(first, want[:3]) {
		t.Fatalf("early-stop ForEach = %v, want %v", first, want[:3])
	}
	b.Reset(130)
	if b.Popcount() != 0 {
		t.Fatal("Reset did not clear the set")
	}
}

func TestBitmapResetReuseAndResize(t *testing.T) {
	b := New(256)
	b.Add(200)
	b.Reset(64) // shrink below the set bit's word
	if b.Len() != 64 || b.Popcount() != 0 {
		t.Fatalf("Reset(64): len=%d popcount=%d", b.Len(), b.Popcount())
	}
	b.Add(63)
	b.Reset(256) // grow again into previously-used (dirty) capacity
	if b.Popcount() != 0 {
		t.Fatal("grown bitmap not cleared")
	}
	b.Add(255)
	if !b.Contains(255) || b.Popcount() != 1 {
		t.Fatal("bit lost after grow")
	}
}

// TestBitmapAlgebraAgainstModel cross-checks And and Or on random sets
// against the map model.
func TestBitmapAlgebraAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	for round := 0; round < 50; round++ {
		ra, rb := reference{}, reference{}
		a, b := New(n), New(n)
		for i := 0; i < 120; i++ {
			x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
			ra[x] = struct{}{}
			a.Add(x)
			rb[y] = struct{}{}
			b.Add(y)
		}
		check := func(op string, got *Bitmap, want func(int32) bool) {
			t.Helper()
			for id := int32(0); id < n; id++ {
				if got.Contains(id) != want(id) {
					t.Fatalf("round %d %s: mismatch at %d", round, op, id)
				}
			}
		}
		and := New(n)
		and.Or(a)
		and.And(b)
		check("and", and, func(id int32) bool {
			_, ina := ra[id]
			_, inb := rb[id]
			return ina && inb
		})
		or := New(n)
		or.Or(a)
		or.Or(b)
		check("or", or, func(id int32) bool {
			_, ina := ra[id]
			_, inb := rb[id]
			return ina || inb
		})
		if and.Popcount()+or.Popcount() != a.Popcount()+b.Popcount() {
			t.Fatalf("round %d: |a∩b| + |a∪b| != |a| + |b|", round)
		}
	}
}

func TestSortedKernelsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 100; round++ {
		ra, rb := reference{}, reference{}
		for i := 0; i < rng.Intn(40); i++ {
			ra[int32(rng.Intn(100))] = struct{}{}
		}
		for i := 0; i < rng.Intn(40); i++ {
			rb[int32(rng.Intn(100))] = struct{}{}
		}
		a, b := ra.sorted(), rb.sorted()

		wantInter := reference{}
		for id := range ra {
			if _, ok := rb[id]; ok {
				wantInter[id] = struct{}{}
			}
		}

		if got := IntersectSorted(nil, a, b); !slices.Equal(got, wantInter.sorted()) {
			t.Fatalf("round %d intersect: %v", round, got)
		}
		// In-place aliasing: dst == a.
		scratch := append([]int32(nil), a...)
		if got := IntersectSorted(scratch[:0], scratch, b); !slices.Equal(got, wantInter.sorted()) {
			t.Fatalf("round %d aliased intersect: %v", round, got)
		}
	}
}

// TestKernelAllocations is the tentpole's zero-allocation guarantee: every
// rowset kernel must run allocation-free once its storage is sized.
func TestKernelAllocations(t *testing.T) {
	const n = 4096
	a, b := New(n), New(n)
	for i := int32(0); i < n; i += 3 {
		a.Add(i)
	}
	for i := int32(0); i < n; i += 5 {
		b.Add(i)
	}
	ids := make([]int32, 0, n)
	sa := a.AppendTo(nil)
	sb := b.AppendTo(nil)
	dst := make([]int32, 0, len(sa)+len(sb))
	sink := 0

	kernels := map[string]func(){
		"Reset":           func() { a.Reset(n) },
		"Add":             func() { a.Add(17) },
		"Contains":        func() { _ = a.Contains(17) },
		"AddSorted":       func() { a.AddSorted(sa) },
		"And":             func() { a.And(b) },
		"Or":              func() { a.Or(b) },
		"Popcount":        func() { sink += a.Popcount() },
		"ForEach":         func() { a.ForEach(func(id int32) bool { sink += int(id); return true }) },
		"AppendTo":        func() { ids = a.AppendTo(ids[:0]) },
		"IntersectSorted": func() { dst = IntersectSorted(dst[:0], sa, sb) },
	}
	for name, fn := range kernels {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per run, want 0", name, allocs)
		}
	}
	// Restore a after the mutating kernels so the sink stays meaningful.
	_ = sink
}

func BenchmarkBitmapAnd(b *testing.B) {
	x, y := New(1<<16), New(1<<16)
	for i := int32(0); i < 1<<16; i += 3 {
		x.Add(i)
	}
	for i := int32(0); i < 1<<16; i += 7 {
		y.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkBitmapAppendTo(b *testing.B) {
	x := New(1 << 16)
	for i := int32(0); i < 1<<16; i += 9 {
		x.Add(i)
	}
	dst := make([]int32, 0, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = x.AppendTo(dst[:0])
	}
}

func BenchmarkIntersectSorted(b *testing.B) {
	var x, y []int32
	for i := int32(0); i < 1<<14; i += 3 {
		x = append(x, i)
	}
	for i := int32(0); i < 1<<14; i += 5 {
		y = append(y, i)
	}
	dst := make([]int32, 0, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = IntersectSorted(dst[:0], x, y)
	}
}
