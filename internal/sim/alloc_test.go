package sim

import (
	"testing"

	"wlreviver/internal/obs"
	"wlreviver/internal/trace"
)

// The memory-layout contract for the hot path: once a run is past its
// warm-up (buffers grown, maps populated), servicing writes must not
// allocate — neither unobserved nor with the standard Metrics observer
// attached — and the sharded merge barrier must cost O(1) allocations
// per round regardless of how many events the round buffered.
//
// Failure bookkeeping may allocate: a fresh cell failure inserts into
// the PCM's sparse failure index, and a fresh block failure may link a
// shadow or acquire a page. Walking an already-linked chain may not;
// internal/reviver's TestRevivedWriteAllocs pins that on a degraded
// chip. Endurance here is pushed far above the measured write budget so
// the steady-state samples contain no failures at all.

func steadyConfig(observer obs.Observer) Config {
	s := TinyScale()
	s.MeanEndurance = 1e9
	s.MaxWritesPerBlock = 1 << 40
	cfg := s.config()
	cfg.Observer = observer
	if observer != nil {
		cfg.SnapshotEvery = 1 << 60 // park snapshots out of reach
	}
	return cfg
}

func steadyEngine(t *testing.T, observer obs.Observer) *Engine {
	t.Helper()
	cfg := steadyConfig(observer)
	gen, err := trace.NewUniform(cfg.Blocks, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if e.RunN(20_000) != 20_000 { // warm-up: grow every buffer once
		t.Fatal("engine stopped during warm-up")
	}
	return e
}

func TestWritePathAllocsUnobserved(t *testing.T) {
	e := steadyEngine(t, nil)
	allocs := testing.AllocsPerRun(2000, func() { e.RunN(1) })
	if allocs != 0 {
		t.Errorf("steady-state unobserved write allocates %.2f objects, want 0", allocs)
	}
}

func TestWritePathAllocsObserved(t *testing.T) {
	e := steadyEngine(t, obs.NewMetrics())
	allocs := testing.AllocsPerRun(2000, func() { e.RunN(1) })
	if allocs != 0 {
		t.Errorf("steady-state observed write allocates %.2f objects, want 0", allocs)
	}
}

func TestShardedMergeAllocsPerRound(t *testing.T) {
	cfg := steadyConfig(obs.NewMetrics())
	se, err := NewShardedEngine(ShardedConfig{Grid: 4, Pool: 1}, cfg,
		func(shard uint64, shardCfg Config) (trace.Generator, error) {
			return trace.NewUniform(shardCfg.Blocks, 5+shard)
		})
	if err != nil {
		t.Fatal(err)
	}
	round := cfg.Blocks / 4 // default RoundWrites = shard blocks
	if se.RunN(16*round) != 16*round {
		t.Fatal("sharded engine stopped during warm-up")
	}
	// One iteration = one full round = one merge barrier per sub-round.
	// O(1) means a small constant independent of the events buffered; the
	// recorders and scheduling scratch are all engine-owned and reused.
	allocs := testing.AllocsPerRun(200, func() { se.RunN(round) })
	if allocs > 2 {
		t.Errorf("sharded round allocates %.2f objects, want O(1) (<= 2)", allocs)
	}
}
