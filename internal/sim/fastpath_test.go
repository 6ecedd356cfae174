package sim

import (
	"testing"

	"wlreviver/internal/trace"
)

// serialOnly hides a generator's NextBatch fast path, forcing the engine
// onto the one-Next-per-write baseline.
type serialOnly struct{ g trace.Generator }

func (s serialOnly) Name() string      { return s.g.Name() }
func (s serialOnly) NumBlocks() uint64 { return s.g.NumBlocks() }
func (s serialOnly) Next() uint64      { return s.g.Next() }

// fastpathConfig is a geometry small enough to push engines deep into the
// failure regime quickly: cell failures, page acquisitions and chain
// reductions all occur within a few hundred thousand writes.
func fastpathConfig() Config {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 10
	cfg.BlocksPerPage = 16
	cfg.CellsPerBlock = 64
	cfg.MeanEndurance = 500
	cfg.Seed = 21
	return cfg
}

func fastpathGen(t *testing.T, cfg Config) *trace.Weighted {
	t.Helper()
	gen, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: cfg.Blocks,
		TargetCoV: 2.0,
		Seed:      cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// compareEngines asserts two engines reached bit-identical end states.
func compareEngines(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	if a.Writes() != b.Writes() {
		t.Fatalf("%s: writes %d vs %d", label, a.Writes(), b.Writes())
	}
	if a.Stopped() != b.Stopped() {
		t.Fatalf("%s: stopped %v vs %v", label, a.Stopped(), b.Stopped())
	}
	if a.SurvivalRate() != b.SurvivalRate() {
		t.Fatalf("%s: survival %v vs %v", label, a.SurvivalRate(), b.SurvivalRate())
	}
	if a.UsableFraction() != b.UsableFraction() {
		t.Fatalf("%s: usable %v vs %v", label, a.UsableFraction(), b.UsableFraction())
	}
	if a.Device().Stats() != b.Device().Stats() {
		t.Fatalf("%s: device stats %+v vs %+v", label, a.Device().Stats(), b.Device().Stats())
	}
	aw, bw := a.Device().WearCounts(), b.Device().WearCounts()
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("%s: block %d wear %d vs %d", label, i, aw[i], bw[i])
		}
	}
}

// TestBatchedMatchesStepDriven pins the engine's batched address path to
// the Step-driven baseline: the same configuration run (a) through RunN
// with address prefetching, (b) through RunN with batching hidden, and
// (c) through a pure Step loop must end in identical states — deep into
// the failure regime, not just the healthy prefix.
func TestBatchedMatchesStepDriven(t *testing.T) {
	cfg := fastpathConfig()
	const writes = 400_000

	build := func(hideBatch bool) *Engine {
		gen := fastpathGen(t, cfg)
		var g trace.Generator = gen
		if hideBatch {
			g = serialOnly{g: gen}
		}
		e, err := NewEngine(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	batched := build(false)
	if batched.batchGen == nil {
		t.Fatal("engine did not adopt the generator's batch fast path")
	}
	hidden := build(true)
	if hidden.batchGen != nil {
		t.Fatal("serialOnly wrapper failed to hide NextBatch")
	}
	stepped := build(false)

	batched.RunN(writes)
	hidden.RunN(writes)
	var steps uint64
	for steps < writes && stepped.Step() {
		steps++
	}

	if batched.Device().DeadBlocks() == 0 {
		t.Fatal("run ended before any block died; failure paths not exercised")
	}
	compareEngines(t, "batched vs hidden-batch", batched, hidden)
	compareEngines(t, "batched vs step-driven", batched, stepped)
}

// TestStepRunNInterleavingCoherent checks Step and Run share the address
// prefetch buffer: interleaving them must reproduce a pure RunN stream.
func TestStepRunNInterleavingCoherent(t *testing.T) {
	cfg := fastpathConfig()
	const writes = 120_000

	pure, err := NewEngine(cfg, fastpathGen(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewEngine(cfg, fastpathGen(t, cfg))
	if err != nil {
		t.Fatal(err)
	}

	pure.RunN(writes)
	var done uint64
	for chunk := uint64(1); done < writes; chunk = chunk*3 + 7 {
		if done < writes && mixed.Step() {
			done++
		}
		n := chunk % 997
		if rem := writes - done; n > rem {
			n = rem
		}
		done += mixed.RunN(n)
		if mixed.Stopped() {
			break
		}
	}
	compareEngines(t, "pure RunN vs Step/Run mix", pure, mixed)
}

// BenchmarkEngineRunNFastPath measures the full optimized write loop —
// batched addresses, memoized randomization, horizon fast path,
// devirtualized dispatch — on the healthy steady state.
func BenchmarkEngineRunNFastPath(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MeanEndurance = 1e12 // stay in the failure-free regime
	gen, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: cfg.Blocks,
		TargetCoV: 2.0,
		Seed:      3,
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	const batch = 1 << 12
	for i := 0; i < b.N; i += batch {
		n := uint64(batch)
		if rem := b.N - i; rem < batch {
			n = uint64(rem)
		}
		if e.RunN(n) != n {
			b.Fatal("engine stopped mid-bench")
		}
	}
}
