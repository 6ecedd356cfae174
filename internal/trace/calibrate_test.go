package trace

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"wlreviver/internal/rng"
)

// bisectWeights is the reference calibration: the bisection that
// defines calibrateAlpha's answer, computing every probe, each with a
// fresh weight slice and a separate two-pass CoV (the formulation covAt
// fuses; operation order per element is the same). It returns the
// bisection's hi, which calibrateAlpha must return exactly, and the
// weights at hi, which expWeights must reproduce.
func bisectWeights(logW []float64, targetCoV float64) (float64, []float64) {
	maxLog := logW[0]
	for _, l := range logW {
		if l > maxLog {
			maxLog = l
		}
	}
	expAt := func(alpha float64) []float64 {
		w := make([]float64, len(logW))
		for i, l := range logW {
			w[i] = math.Exp(alpha * (l - maxLog))
		}
		return w
	}
	covOf := func(w []float64) float64 {
		var mean float64
		for _, x := range w {
			mean += x
		}
		mean /= float64(len(w))
		var m2 float64
		for _, x := range w {
			d := x - mean
			m2 += d * d
		}
		if mean == 0 {
			return 0
		}
		return math.Sqrt(m2/float64(len(w))) / mean
	}
	if targetCoV == 0 {
		return 0, expAt(0)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60 && covOf(expAt(hi)) < targetCoV; i++ {
		lo = hi
		hi *= 2
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if covOf(expAt(mid)) < targetCoV {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, expAt(hi)
}

// raceEnabled is set by race_test.go under the race detector, which
// slows the oracle's full-field bisections enough to drop the 2^18 case.
var raceEnabled bool

// testField draws the log-weight field NewWeighted would for n blocks
// in pages of pageBlocks, from seed.
func testField(n, pageBlocks, seed uint64) []float64 {
	return logWeights(WeightedConfig{NumBlocks: n, PageBlocks: pageBlocks}, rng.New(seed))
}

// calibrationTargets are every Table I CoV plus the edges: zero, a tiny
// target, and, below 2^16 blocks (where the bisection's 110 probes of a
// saturating target stay cheap), one no field of n blocks can reach (a
// sample CoV stays below sqrt(n-1)).
func calibrationTargets(n uint64) []float64 {
	targets := []float64{0, 1e-3}
	for _, b := range Benchmarks {
		targets = append(targets, b.WriteCoV)
	}
	if n < 1<<16 {
		targets = append(targets, 2*math.Sqrt(float64(n)))
	}
	return targets
}

func checkCalibration(t *testing.T, logW []float64, target float64) int {
	t.Helper()
	got, passes := calibrateAlpha(logW, target)
	if want, _ := bisectWeights(logW, target); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n %d target %g: calibrateAlpha = %v (%x), bisection = %v (%x)",
			len(logW), target, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return passes
}

// TestCalibrateMatchesBisection is the exactness oracle: the certified
// replay returns the bisection's alpha bit for bit over field sizes,
// page sizes and targets, including a saturating target and a constant
// field.
func TestCalibrateMatchesBisection(t *testing.T) {
	sizes := []uint64{1, 2, 17, 1023, 4096, 8192, 65536}
	if !testing.Short() && !raceEnabled {
		sizes = append(sizes, 1<<18)
	}
	for _, n := range sizes {
		for _, page := range []uint64{1, 16, 32, 64} {
			logW := testField(n, page, n*31+page)
			for _, target := range calibrationTargets(n) {
				checkCalibration(t, logW, target)
			}
		}
	}
	constant := make([]float64, 300)
	for i := range constant {
		constant[i] = -1.5
	}
	for _, target := range calibrationTargets(300) {
		checkCalibration(t, constant, target)
	}
}

// TestCalibratePasses pins the point of the replay: at bench and paper
// geometry every Table I target costs well under the bisection's ~55
// passes over the field.
func TestCalibratePasses(t *testing.T) {
	for _, n := range []uint64{1 << 13, 1 << 16} {
		logW := testField(n, 64, 42)
		for _, b := range Benchmarks {
			if passes := checkCalibration(t, logW, b.WriteCoV); passes > 30 {
				t.Errorf("n %d %s: %d covAt passes, want at most 30", n, b.Name, passes)
			}
		}
	}
}

// TestExpWithinFourULP checks the one assumption covBound takes on
// trust: math.Exp's result is within 8u (4 ulp) relative of exp(x) over
// the arguments covAt feeds it whose results are normal. The reference
// is exp(x/2^12)^(2^12), the inner exp a Taylor series, in 600-bit
// arithmetic.
func TestExpWithinFourULP(t *testing.T) {
	const prec = 600
	src := rng.New(5)
	for i := 0; i < 2000; i++ {
		x := -708 * src.Float64()
		if i%2 == 0 {
			x = -2 * src.Float64()
		}
		r := new(big.Float).SetPrec(prec).SetFloat64(x)
		r.SetMantExp(r, -12)
		ref := new(big.Float).SetPrec(prec).SetInt64(1)
		term := new(big.Float).SetPrec(prec).SetInt64(1)
		for j := int64(1); j < 60; j++ {
			term.Mul(term, r)
			term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(j))
			ref.Add(ref, term)
		}
		for j := 0; j < 12; j++ {
			ref.Mul(ref, ref)
		}
		got := math.Exp(x)
		d := new(big.Float).SetPrec(prec).SetFloat64(got)
		rel, _ := d.Sub(d, ref).Quo(d, ref).Float64()
		if math.Abs(rel) > 8*unitRound {
			t.Fatalf("math.Exp(%v) = %v is %.1fu from exp(x), want at most 8u", x, got, math.Abs(rel)/unitRound)
		}
	}
}

// FuzzCalibrate compares the replay with the bisection on arbitrary
// fields of up to 4096 blocks and arbitrary targets.
func FuzzCalibrate(f *testing.F) {
	f.Add(uint64(1), uint16(4096), 40.87)
	f.Add(uint64(2), uint16(1), 8.88)
	f.Add(uint64(3), uint16(64), 1e-3)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, target float64) {
		if n == 0 || n > 4096 || target < 0 || math.IsNaN(target) {
			t.Skip()
		}
		page := uint64(1) << (seed % 7)
		checkCalibration(t, testField(uint64(n), page, seed), target)
	})
}

// TestConcurrentBuildsAgree builds one key from several goroutines at
// once: every generator must draw the same stream (run under -race, this
// also checks the alpha memo's locking).
func TestConcurrentBuildsAgree(t *testing.T) {
	const workers = 8
	streams := make([][]uint64, workers)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := NewBenchmark("mg", 1<<12, 64, 0xC0C0)
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = make([]uint64, 1000)
			g.NextBatch(streams[i])
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w, got := range streams[1:] {
		for i := range got {
			if got[i] != streams[0][i] {
				t.Fatalf("builder %d draw %d = %d, want %d", w+1, i, got[i], streams[0][i])
			}
		}
	}
}

// BenchmarkNewBenchmark measures generator set-up: each iteration builds
// a key never seen before (so it calibrates), at bench (2^13 blocks) and
// paper (2^16) geometry, and a memo hit at paper geometry (the field,
// weights and alias table rebuilt around a memoized alpha).
func BenchmarkNewBenchmark(b *testing.B) {
	seed := uint64(1) << 40
	for _, geo := range []struct {
		name   string
		blocks uint64
	}{{"bench", 1 << 13}, {"paper", 1 << 16}} {
		b.Run(geo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed++
				if _, err := NewBenchmark("mg", geo.blocks, 64, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("hit", func(b *testing.B) {
		if _, err := NewBenchmark("mg", 1<<16, 64, 9); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewBenchmark("mg", 1<<16, 64, 9); err != nil {
				b.Fatal(err)
			}
		}
	})
}
