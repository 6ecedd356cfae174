package sim

// Engine-level counterpart of internal/wear/conformance: every leveler
// kind, slotted into the full simulation stack, must behave identically
// regardless of how the run is batched or sharded, and must keep
// servicing writes once WL-Reviver starts revving failed blocks. This is
// what makes the leveler registry generic: a kind that passes here works
// under every experiment runner, the crash/resume machinery and the
// fleet daemon without special cases.

import (
	"testing"

	"wlreviver/internal/trace"
)

// levelerKindsUnderTest is every registered leveler with a mapping
// (LevelerNone is the no-op baseline the others are measured against).
var levelerKindsUnderTest = []LevelerKind{
	LevelerStartGap,
	LevelerSecurityRefresh,
	LevelerRegionedStartGap,
	LevelerWoLFRaM,
	LevelerSoftWear,
}

// levelerTestConfig is the failure-dense checkpoint geometry with
// content tracking on, so revives must preserve data, not just space.
func levelerTestConfig(kind LevelerKind) Config {
	cfg := ckptTestConfig()
	cfg.Leveler = kind
	cfg.TrackContent = true
	if kind == LevelerSecurityRefresh {
		cfg.SRInnerRegions = 4
	}
	return cfg
}

// TestLevelerKindsRunNBatching pins batching-invariance: an engine
// stepped one write at a time must end byte-identical to one driven in
// ragged large batches — for every leveler kind, under WL-Reviver, with
// failures occurring mid-run.
func TestLevelerKindsRunNBatching(t *testing.T) {
	const budget = 40_000
	for _, kind := range levelerKindsUnderTest {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			build := func() *Engine {
				cfg := levelerTestConfig(kind)
				gen, err := trace.NewBenchmark("ocean", cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(cfg, gen)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			single := build()
			for single.Writes() < budget && single.RunN(1) > 0 {
			}
			exhausted := single.Writes() < budget
			want, err := single.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if single.Device().DeadBlocks() == 0 {
				t.Fatal("no block failed; the revive path was not exercised")
			}

			batched := build()
			for _, chunk := range []uint64{1, 137, 7_777, 13_000, budget} {
				if batched.Writes() >= single.Writes() {
					break
				}
				n := chunk
				if rest := single.Writes() - batched.Writes(); n > rest {
					n = rest
				}
				if batched.RunN(n) == 0 {
					break
				}
			}
			if exhausted {
				// The single-stepped run ended on a failed write attempt,
				// which still consumes a workload address; make the same
				// final attempt here so both ends of life are identical.
				batched.RunN(1)
			}
			got, err := batched.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s: batched run diverged from single-stepped run", kind)
			}
		})
	}
}

// TestLevelerKindsShardPoolWidths pins shard-invariance: a sharded chip
// hosting the kind must produce the identical final checkpoint image at
// every execution pool width (the -shards CLI axis).
func TestLevelerKindsShardPoolWidths(t *testing.T) {
	const budget = 30_000
	for _, kind := range levelerKindsUnderTest {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			var want string
			for _, pool := range []int{1, 3, 7} {
				cfg := levelerTestConfig(kind)
				se, err := NewShardedEngine(ShardedConfig{Grid: shardTestGrid, Pool: pool}, cfg,
					func(shard uint64, shardCfg Config) (trace.Generator, error) {
						return trace.NewBenchmark("ocean", shardCfg.Blocks, shardCfg.BlocksPerPage, shardCfg.Seed)
					})
				if err != nil {
					t.Fatal(err)
				}
				img := shardedFinalImage(t, se, budget)
				if want == "" {
					want = string(img)
					continue
				}
				if string(img) != want {
					t.Fatalf("%s: pool width %d diverged from width 1", kind, pool)
				}
			}
		})
	}
}

// TestLevelerKindsSurviveFailures drives each kind far past its first
// block failures under WL-Reviver and requires the engine to keep
// servicing writes with a sane usable-space report — the engine-level
// revive-compatibility claim.
func TestLevelerKindsSurviveFailures(t *testing.T) {
	for _, kind := range levelerKindsUnderTest {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := levelerTestConfig(kind)
			gen, err := trace.NewBenchmark("mg", cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			var firstFail uint64
			for e.Writes() < 120_000 && firstFail == 0 {
				if e.RunN(500) == 0 {
					break
				}
				if e.Device().DeadBlocks() > 0 {
					firstFail = e.Writes()
				}
			}
			if firstFail == 0 {
				t.Fatal("no block ever failed")
			}
			// Keep writing well past the first failure — the revived
			// scheme must keep servicing the workload, not stall.
			if got := e.RunN(2_000); got != 2_000 {
				t.Fatalf("engine serviced only %d of 2000 writes past the first failure", got)
			}
			if u := e.UsableFraction(); u <= 0 || u > 1 {
				t.Fatalf("usable fraction %v out of range after failures", u)
			}
			if e.lvOps() == 0 {
				t.Fatalf("%s performed zero leveling operations over %d writes", kind, e.Writes())
			}
		})
	}
}
