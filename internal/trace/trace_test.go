package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"wlreviver/internal/rng"
)

func TestAliasErrors(t *testing.T) {
	src := rng.New(1)
	cases := [][]float64{
		{},
		{0, 0},
		{1, -1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for i, ws := range cases {
		if _, err := NewAlias(ws, src); err == nil {
			t.Errorf("case %d: invalid weights accepted: %v", i, ws)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	src := rng.New(2)
	weights := []float64{1, 2, 3, 4, 0, 10}
	a, err := NewAlias(weights, src)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample()]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := w / sum
		got := counts[i] / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
	if counts[4] != 0 {
		t.Error("zero-weight outcome was sampled")
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{5}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Sample() != 0 {
			t.Fatal("single outcome must always be 0")
		}
	}
}

// Property: alias samples are always in range.
func TestQuickAliasInRange(t *testing.T) {
	src := rng.New(5)
	prop := func(raw []float64) bool {
		ws := make([]float64, 0, len(raw)+1)
		for _, w := range raw {
			ws = append(ws, math.Abs(math.Mod(w, 100)))
		}
		ws = append(ws, 1) // ensure positive sum
		a, err := NewAlias(ws, src)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			if a.Sample() >= uint64(len(ws)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedConfigErrors(t *testing.T) {
	cases := []WeightedConfig{
		{NumBlocks: 0},
		{NumBlocks: 10, TargetCoV: -1},
		{NumBlocks: 10, TargetCoV: math.NaN()},
		{NumBlocks: 10, TargetCoV: math.Inf(1)},
		{NumBlocks: 10, TargetCoV: math.Inf(-1)},
		{NumBlocks: 10, UniformMix: -0.1},
		{NumBlocks: 10, UniformMix: 1.1},
		{NumBlocks: 10, UniformMix: math.NaN()},
	}
	for i, c := range cases {
		if _, err := NewWeighted(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestWeightedHitsTargetCoV(t *testing.T) {
	for _, target := range []float64{0, 2, 5, 12} {
		g, err := NewWeighted(WeightedConfig{
			NumBlocks:  1 << 14,
			PageBlocks: 64,
			TargetCoV:  target,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := MeasureCoV(g, 1<<21)
		// Sampling noise adds ~sqrt(1/meanCount) in quadrature; with 128
		// writes/block that is ~0.09. Accept 30% relative + 0.35 absolute.
		tol := 0.30*target + 0.35
		if math.Abs(got-target) > tol {
			t.Errorf("target CoV %.2f: measured %.2f (tolerance %.2f)", target, got, tol)
		}
	}
}

func TestWeightedName(t *testing.T) {
	g, _ := NewWeighted(WeightedConfig{NumBlocks: 16, TargetCoV: 3.5, Seed: 1})
	if g.Name() != "weighted-cov3.5" {
		t.Errorf("name = %q", g.Name())
	}
	g2, _ := NewWeighted(WeightedConfig{Label: "custom", NumBlocks: 16, Seed: 1})
	if g2.Name() != "custom" {
		t.Errorf("name = %q", g2.Name())
	}
}

func TestWeightedUniformMix(t *testing.T) {
	g, err := NewWeighted(WeightedConfig{
		NumBlocks: 1 << 12, TargetCoV: 40, UniformMix: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mixed := MeasureCoV(g, 1<<19)
	pure, _ := NewWeighted(WeightedConfig{NumBlocks: 1 << 12, TargetCoV: 40, Seed: 3})
	unmixed := MeasureCoV(pure, 1<<19)
	if mixed >= unmixed {
		t.Errorf("uniform mix should lower CoV: mixed %.1f vs pure %.1f", mixed, unmixed)
	}
}

func TestUniform(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Error("zero blocks accepted")
	}
	g, err := NewUniform(1024, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "uniform" || g.NumBlocks() != 1024 {
		t.Error("metadata wrong")
	}
	cov := MeasureCoV(g, 1<<20)
	// Pure Poisson noise: CoV ~ 1/sqrt(1024) ~ 0.03 at 1024 writes/block.
	if cov > 0.1 {
		t.Errorf("uniform CoV = %.3f, want ~0", cov)
	}
}

func TestBenchmarkPresets(t *testing.T) {
	if len(Benchmarks) != 8 {
		t.Fatalf("Table I has 8 benchmarks, got %d", len(Benchmarks))
	}
	names := BenchmarkNames()
	if names[0] != "blackscholes" || names[3] != "mg" {
		t.Errorf("order wrong: %v", names)
	}
	if _, err := LookupBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	spec, err := LookupBenchmark("ocean")
	if err != nil || spec.WriteCoV != 4.15 {
		t.Errorf("ocean spec wrong: %+v, %v", spec, err)
	}
	if _, err := NewBenchmark("nope", 64, 64, 1); err == nil {
		t.Error("NewBenchmark accepted unknown name")
	}
}

func TestBenchmarkGeneratorCoVOrdering(t *testing.T) {
	// mg (CoV 40.87) must measure substantially more skewed than ocean
	// (CoV 4.15) at equal scale.
	mg, err := NewBenchmark("mg", 1<<14, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	ocean, err := NewBenchmark("ocean", 1<<14, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	mgCoV := MeasureCoV(mg, 1<<21)
	oceanCoV := MeasureCoV(ocean, 1<<21)
	if mgCoV < 3*oceanCoV {
		t.Errorf("mg CoV %.2f should far exceed ocean CoV %.2f", mgCoV, oceanCoV)
	}
}

func TestHammer(t *testing.T) {
	if _, err := NewHammer(0, []uint64{0}); err == nil {
		t.Error("zero space accepted")
	}
	if _, err := NewHammer(10, nil); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := NewHammer(10, []uint64{10}); err == nil {
		t.Error("out-of-range target accepted")
	}
	h, err := NewHammer(100, []uint64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	seq := []uint64{h.Next(), h.Next(), h.Next(), h.Next()}
	want := []uint64{3, 7, 3, 7}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("hammer sequence %v, want %v", seq, want)
		}
	}
	// Mutating the caller's slice must not affect the generator.
	targets := []uint64{5}
	h2, _ := NewHammer(10, targets)
	targets[0] = 9
	if h2.Next() != 5 {
		t.Error("hammer aliased caller's slice")
	}
}

func TestBirthdayParadox(t *testing.T) {
	for _, bad := range []struct {
		n     uint64
		set   int
		burst uint64
	}{{0, 1, 1}, {10, 0, 1}, {10, 11, 1}, {10, 2, 0}} {
		if _, err := NewBirthdayParadox(bad.n, bad.set, bad.burst, 1); err == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}
	b, err := NewBirthdayParadox(1000, 4, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Within one burst only setSize distinct addresses appear.
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		a := b.Next()
		if a >= 1000 {
			t.Fatalf("address %d out of range", a)
		}
		seen[a] = true
	}
	if len(seen) > 4 {
		t.Errorf("burst touched %d distinct addresses, want <=4", len(seen))
	}
	// Over many bursts the set changes.
	for i := 0; i < 16*20; i++ {
		seen[b.Next()] = true
	}
	if len(seen) <= 4 {
		t.Error("attack never re-drew its target set")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	g, _ := NewUniform(256, 21)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, g, 1000); err != nil {
		t.Fatal(err)
	}
	r, err := ReadTrace(&buf, "replayed")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "replayed" || r.NumBlocks() != 256 || r.Len() != 1000 {
		t.Errorf("metadata wrong: %q %d %d", r.Name(), r.NumBlocks(), r.Len())
	}
	// Same seed generator produces the same stream as the replay.
	g2, _ := NewUniform(256, 21)
	for i := 0; i < 1000; i++ {
		if r.Next() != g2.Next() {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	// Replay loops.
	g3, _ := NewUniform(256, 21)
	if r.Next() != g3.Next() {
		t.Error("replay did not loop to the start")
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil), "x"); err == nil {
		t.Error("empty file accepted")
	}
	bad := append([]byte("NOPE"), make([]byte, 20)...)
	if _, err := ReadTrace(bytes.NewReader(bad), "x"); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated records.
	g, _ := NewUniform(16, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, g, 10); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadTrace(bytes.NewReader(trunc), "x"); err == nil {
		t.Error("truncated file accepted")
	}
}

func BenchmarkWeightedNext(b *testing.B) {
	g, _ := NewWeighted(WeightedConfig{NumBlocks: 1 << 16, TargetCoV: 10, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}
