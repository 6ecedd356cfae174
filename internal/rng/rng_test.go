package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %x != %x", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	var or uint64
	for i := 0; i < 16; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("seed 0 produced an all-zero stream")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 20, 1<<63 + 3} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Uint64n(0)")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for Intn(%d)", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		if f := r.Float64Open(); f <= 0 || f >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(10)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make(map[int]bool)
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(77)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("forks with different labels overlapped %d/100 draws", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(123).Fork(5)
	b := New(123).Fork(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork of same seed/label diverged")
		}
	}
}

// Property: Uint64n(n) < n for arbitrary positive n.
func TestQuickUint64nInRange(t *testing.T) {
	r := New(999)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%x, %x) = (%x, %x), want (%x, %x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestFillMatchesUint64 pins the bulk path to the reference: Fill(dst)
// yields the values len(dst) successive Uint64 calls would, and leaves
// the identical state, for batch lengths that do and do not divide the
// stream.
func TestFillMatchesUint64(t *testing.T) {
	for _, n := range []int{0, 1, 3, 512, 1000} {
		ref, bulk := New(uint64(n)+7), New(uint64(n)+7)
		ref.Uint64() // start both mid-stream
		bulk.Uint64()
		for round := 0; round < 3; round++ {
			dst := make([]uint64, n)
			bulk.Fill(dst)
			for i, got := range dst {
				if want := ref.Uint64(); got != want {
					t.Fatalf("n=%d round %d: Fill[%d] = %x, Uint64 = %x", n, round, i, got, want)
				}
			}
			if bulk.State() != ref.State() {
				t.Fatalf("n=%d round %d: Fill left state %x, Uint64 %x", n, round, bulk.State(), ref.State())
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkFill measures the bulk draw per value, against BenchmarkUint64.
func BenchmarkFill(b *testing.B) {
	r := New(1)
	buf := make([]uint64, 512)
	for i := 0; i < b.N; i += len(buf) {
		r.Fill(buf)
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(1000003)
	}
}

// Hash64/HashFloat64Open promise exact equivalence with the Source path;
// pcm's order-statistic draws rely on it for byte-identical results.
func TestHash64MatchesSource(t *testing.T) {
	seeds := []uint64{0, 1, 42, math.MaxUint64, 0x9E3779B97F4A7C15}
	r := New(99)
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, r.Uint64())
	}
	for _, seed := range seeds {
		if got, want := Hash64(seed), New(seed).Uint64(); got != want {
			t.Fatalf("Hash64(%#x) = %#x, Source gives %#x", seed, got, want)
		}
		if got, want := HashFloat64Open(seed), New(seed).Float64Open(); got != want {
			t.Fatalf("HashFloat64Open(%#x) = %v, Source gives %v", seed, got, want)
		}
	}
}

func BenchmarkHash64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Hash64(uint64(i))
	}
}

func BenchmarkNewSourceDraw(b *testing.B) {
	// The allocation Hash64 avoids: a full Source per single draw.
	for i := 0; i < b.N; i++ {
		_ = New(uint64(i)).Uint64()
	}
}
