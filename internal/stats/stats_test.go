package stats

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d, want 8", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.Variance(), 4, 1e-12) {
		t.Errorf("variance = %v, want 4", w.Variance())
	}
	if !almostEqual(w.StdDev(), 2, 1e-12) {
		t.Errorf("stddev = %v, want 2", w.StdDev())
	}
	if !almostEqual(w.CoV(), 0.4, 1e-12) {
		t.Errorf("cov = %v, want 0.4", w.CoV())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CoV() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Error("single observation: mean 42, variance 0")
	}
}

func TestWelfordMerge(t *testing.T) {
	data := []float64{1, 5, 2, 8, 9, 3, 3, 7, 0, 4}
	var whole, left, right Welford
	for i, x := range data {
		whole.Add(x)
		if i < 4 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(right)
	if left.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", left.Count(), whole.Count())
	}
	if !almostEqual(left.Mean(), whole.Mean(), 1e-12) {
		t.Errorf("merged mean %v != %v", left.Mean(), whole.Mean())
	}
	if !almostEqual(left.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance %v != %v", left.Variance(), whole.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	saved := a
	a.Merge(b) // merging empty is a no-op
	if a != saved {
		t.Error("merging empty changed accumulator")
	}
	b.Merge(a) // merging into empty copies
	if b != saved {
		t.Error("merging into empty did not copy")
	}
}

// Property: Welford matches the two-pass computation on random data.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	r := rng.New(1)
	f := func(n uint8) bool {
		m := int(n%50) + 2
		xs := make([]float64, m)
		var w Welford
		for i := range xs {
			xs[i] = r.Float64() * 100
			w.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(m)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Variance(), ss/float64(m), 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoVOfCounts(t *testing.T) {
	if got := CoVOfCounts([]uint64{5, 5, 5, 5}); got != 0 {
		t.Errorf("uniform counts CoV = %v, want 0", got)
	}
	got := CoVOfCounts([]uint64{0, 10})
	if !almostEqual(got, 1, 1e-12) {
		t.Errorf("CoV of {0,10} = %v, want 1", got)
	}
	if CoVOfCounts(nil) != 0 {
		t.Error("empty counts should give 0")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// input not modified
	if !sort.Float64sAreSorted([]float64{15, 20, 35, 40, 50}) {
		t.Fatal("sanity")
	}
	if math.IsNaN(Percentile(nil, 50)) == false {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5) // clamps to first
	h.Add(99) // clamps to last
	counts := h.Counts()
	if counts[0] != 2 || counts[9] != 2 {
		t.Errorf("clamping failed: %v", counts)
	}
	if h.Total() != 12 {
		t.Errorf("total = %d, want 12", h.Total())
	}
	if c := h.BucketCenter(0); !almostEqual(c, 0.5, 1e-12) {
		t.Errorf("bucket 0 center = %v", c)
	}
	q := h.Quantile(0.5)
	if q < 3 || q > 7 {
		t.Errorf("median estimate %v implausible", q)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("quantile of empty histogram should be NaN")
	}
}

func TestCurveYAt(t *testing.T) {
	var c Curve
	c.Append(0, 100)
	c.Append(10, 50)
	c.Append(20, 0)
	cases := []struct{ x, want float64 }{
		{-5, 100}, {0, 100}, {5, 75}, {10, 50}, {15, 25}, {20, 0}, {30, 0},
	}
	for _, cs := range cases {
		if got := c.YAt(cs.x); !almostEqual(got, cs.want, 1e-9) {
			t.Errorf("YAt(%v) = %v, want %v", cs.x, got, cs.want)
		}
	}
	var empty Curve
	if !math.IsNaN(empty.YAt(1)) {
		t.Error("empty curve YAt should be NaN")
	}
}

func TestCurveXWhereYFallsTo(t *testing.T) {
	var c Curve
	c.Append(0, 100)
	c.Append(10, 80)
	c.Append(20, 60)
	if x, ok := c.XWhereYFallsTo(70); !ok || x != 20 {
		t.Errorf("fall to 70: got (%v,%v), want (20,true)", x, ok)
	}
	if _, ok := c.XWhereYFallsTo(10); ok {
		t.Error("should never fall to 10")
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(10)
	if !s.Due(0) {
		t.Fatal("sampler should fire at 0")
	}
	if s.Due(5) {
		t.Fatal("should not fire at 5")
	}
	if !s.Due(10) {
		t.Fatal("should fire at 10")
	}
	if !s.Due(35) { // skips ahead past gaps
		t.Fatal("should fire at 35")
	}
	if s.Due(39) {
		t.Fatal("should not fire again before 40")
	}
	if !s.Due(40) {
		t.Fatal("should fire at 40")
	}
}

func TestSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSampler(0)
}

// TestCurveLoadStateBoundsCount: a point count the section's bytes cannot
// hold is refused before it sizes an allocation.
func TestCurveLoadStateBoundsCount(t *testing.T) {
	e := ckpt.NewEncoder()
	e.Begin("curve")
	e.String("c")
	e.U32(1 << 20)
	e.F64(1)
	e.End()
	dec, err := ckpt.NewDecoder(e.Finish())
	if err != nil || dec.Section("curve") != nil {
		t.Fatal("image is not well framed")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var c Curve
	err = c.LoadState(dec)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Fatalf("LoadState = %v after allocating %d bytes; want an error and under 1 MiB", err, n)
	}
}
