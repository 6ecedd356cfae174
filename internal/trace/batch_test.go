package trace

import (
	"bytes"
	"math"
	"testing"

	"wlreviver/internal/rng"
)

// batchEquivCases builds, for each generator kind, a factory producing an
// identically seeded fresh instance — two instances of the same case must
// emit identical streams.
func batchEquivCases(t *testing.T) map[string]func() BatchGenerator {
	t.Helper()
	const n = 1 << 10
	newWeighted := func(mix float64) func() BatchGenerator {
		return func() BatchGenerator {
			g, err := NewWeighted(WeightedConfig{
				NumBlocks: n, TargetCoV: 2.5, UniformMix: mix, Seed: 77,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	// A recorded trace with a length that does not divide the batch size,
	// exercising Replay's wraparound copies.
	var buf bytes.Buffer
	{
		g, err := NewUniform(n, 13)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(&buf, g, 777); err != nil {
			t.Fatal(err)
		}
	}
	recording := buf.Bytes()
	return map[string]func() BatchGenerator{
		"weighted":     newWeighted(0),
		"weighted-mix": newWeighted(0.3),
		"uniform": func() BatchGenerator {
			g, err := NewUniform(n, 21)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"hammer": func() BatchGenerator {
			g, err := NewHammer(n, []uint64{3, 9, 4, 1, 500, 3, 7})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"birthday": func() BatchGenerator {
			g, err := NewBirthdayParadox(n, 16, 100, 5)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"replay": func() BatchGenerator {
			g, err := ReadTrace(bytes.NewReader(recording), "rec")
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
}

// TestNextBatchMatchesNext pins the batch fast path to the one-at-a-time
// stream for every generator, across uneven chunk sizes (including chunks
// larger than a Replay recording).
func TestNextBatchMatchesNext(t *testing.T) {
	const total = 4096
	chunks := []int{1, 7, 64, 512, 1000}
	for name, mk := range batchEquivCases(t) {
		serial := mk()
		batched := mk()
		want := make([]uint64, total)
		for i := range want {
			want[i] = serial.Next()
		}
		got := make([]uint64, 0, total)
		buf := make([]uint64, 1000)
		for ci := 0; len(got) < total; ci++ {
			c := chunks[ci%len(chunks)]
			if rem := total - len(got); c > rem {
				c = rem
			}
			batched.NextBatch(buf[:c])
			got = append(got, buf[:c]...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: write %d: batch %d, serial %d", name, i, got[i], want[i])
			}
		}
	}
}

// calibrateWeightsRef is the pre-optimization implementation (separate
// expAt allocation + two-pass covOf per bisection probe), kept verbatim as
// the reference the fused version must match bit for bit.
func calibrateWeightsRef(logW []float64, targetCoV float64) []float64 {
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
		return expAt(0)
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
	return expAt(hi)
}

// TestCalibrateWeightsPinned requires the fused scratch-buffer calibration
// to reproduce the reference implementation's weights bit for bit.
func TestCalibrateWeightsPinned(t *testing.T) {
	src := rng.New(31337)
	for _, size := range []int{1, 63, 4096} {
		logW := make([]float64, size)
		for i := range logW {
			logW[i] = src.NormFloat64()
		}
		for _, target := range []float64{0, 0.2, 1.15, 2.54, 9.77, 100} {
			got := expWeights(logW, calibrateAlpha(logW, target))
			want := calibrateWeightsRef(logW, target)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("size %d target %g: weight %d = %x, want %x",
						size, target, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestSampleBatchMatchesSample pins the batched alias sampler to its
// single-draw reference on every Table I workload at bench geometry:
// SampleBatch must return exactly the successive Sample draws and leave
// the sampler's RNG in the identical state, for batch lengths that do
// and do not divide the engine's 512-address prefetch.
func TestSampleBatchMatchesSample(t *testing.T) {
	for _, name := range BenchmarkNames() {
		ref, err := NewBenchmark(name, 1<<13, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		bulk, err := NewBenchmark(name, 1<<13, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 7, 512, 513, 2000} {
			dst := make([]uint64, n)
			bulk.alias.SampleBatch(dst)
			for i, got := range dst {
				if want := ref.alias.Sample(); got != want {
					t.Fatalf("%s batch %d: SampleBatch[%d] = %d, Sample = %d", name, n, i, got, want)
				}
			}
			if bulk.alias.src.State() != ref.alias.src.State() {
				t.Fatalf("%s batch %d: SampleBatch left RNG state %x, Sample %x",
					name, n, bulk.alias.src.State(), ref.alias.src.State())
			}
		}
	}
}

func newBenchAlias(b *testing.B, n int) *Alias {
	b.Helper()
	src := rng.New(9)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = src.ExpFloat64()
	}
	a, err := NewAlias(weights, src.Fork(1))
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAliasSample measures the single-draw per-call path.
func BenchmarkAliasSample(b *testing.B) {
	a := newBenchAlias(b, 1<<16)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += a.Sample()
	}
	traceBenchSink = sink
}

// BenchmarkAliasBatch measures bulk sampling through SampleBatch.
func BenchmarkAliasBatch(b *testing.B) {
	a := newBenchAlias(b, 1<<16)
	buf := make([]uint64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		a.SampleBatch(buf)
	}
	traceBenchSink = buf[0]
}

// BenchmarkWorkloadBatch measures the sampler as the paper sweep drives
// it: each Table I workload at bench geometry (2^13 blocks), 512
// addresses per NextBatch, in ns per address.
func BenchmarkWorkloadBatch(b *testing.B) {
	for _, name := range BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			g, err := NewBenchmark(name, 1<<13, 64, 42)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]uint64, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i += len(buf) {
				g.NextBatch(buf)
			}
			traceBenchSink = buf[0]
		})
	}
}

var traceBenchSink uint64
