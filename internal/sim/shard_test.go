package sim

import (
	"encoding/json"
	"errors"
	"testing"

	"wlreviver/internal/obs"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

// shardTestGrid keeps the checkpoint-test geometry (1<<9 blocks, 8-block
// pages) divisible into whole-page shards: 128 blocks / 16 pages each.
const shardTestGrid = 4

// buildSharded constructs a fresh sharded chip for the role at the given
// execution pool width, attaching a metrics observer so chip-level
// observer state rides through every checkpoint. The returned Metrics is
// the attached observer.
func buildSharded(t *testing.T, r ckptRole, pool int) (*ShardedEngine, *obs.Metrics) {
	t.Helper()
	cfg := ckptTestConfig()
	r.mutate(&cfg)
	m := obs.NewMetrics()
	cfg.Observer = m
	cfg.SnapshotEvery = 1000
	se, err := NewShardedEngine(ShardedConfig{Grid: shardTestGrid, Pool: pool}, cfg,
		func(shard uint64, shardCfg Config) (trace.Generator, error) {
			return r.gen(shardCfg)
		})
	if err != nil {
		t.Fatal(err)
	}
	return se, m
}

// shardedFinalImage drives the chip to the budget and returns its
// complete final state as checkpoint bytes — every shard's every layer,
// the chip cursor and the accumulated chip metrics, byte for byte.
func shardedFinalImage(t *testing.T, se *ShardedEngine, budget uint64) []byte {
	t.Helper()
	for se.Writes() < budget && se.RunN(budget-se.Writes()) > 0 {
	}
	img, err := se.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func metricsJSON(t *testing.T, m *obs.Metrics) string {
	t.Helper()
	data, err := json.MarshalIndent(m.Report(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardedMatchesSerial is the tentpole's byte-identity oracle: for
// every engine role of the checkpoint sweep, a sharded chip run at pool
// widths 1, 2, 4 and 7 must produce the identical final checkpoint image
// (all shard state, the chip cursor, the observer) and the identical
// metrics report. Run under -race in CI, this also proves the shard pool
// shares nothing it shouldn't.
func TestShardedMatchesSerial(t *testing.T) {
	const budget = 40_000
	for _, r := range ckptRoles() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			var wantImg, wantMetrics string
			for _, pool := range []int{1, 2, 4, 7} {
				se, m := buildSharded(t, r, pool)
				img := string(shardedFinalImage(t, se, budget))
				rep := metricsJSON(t, m)
				if pool == 1 {
					wantImg, wantMetrics = img, rep
					continue
				}
				if img != wantImg {
					t.Errorf("pool=%d final state diverged from serial", pool)
				}
				if rep != wantMetrics {
					t.Errorf("pool=%d metrics diverged from serial", pool)
				}
			}
		})
	}
}

// TestShardedCrossPoolResume pins checkpoint portability across
// execution widths, both directions, for every role of the sweep: a
// checkpoint written under pool=4 resumed under pool=1 — and one written
// under pool=1 resumed under pool=7 — must finish byte-identical to the
// uninterrupted run. The pool width is not part of the persisted state,
// so this is the on-disk half of the byte-identity contract.
func TestShardedCrossPoolResume(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-pool resume sweep is slow; run without -short")
	}
	const budget = 40_000
	for _, r := range ckptRoles() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			ref, _ := buildSharded(t, r, 2)
			want := string(shardedFinalImage(t, ref, budget))

			psi := ref.cfg.GapWritePeriod
			points := []uint64{137, psi*3 + 1, budget / 2}
			for _, pools := range [][2]int{{4, 1}, {1, 7}} {
				for _, p := range points {
					a, _ := buildSharded(t, r, pools[0])
					for a.Writes() < p && a.RunN(p-a.Writes()) > 0 {
					}
					img, err := a.Checkpoint()
					if err != nil {
						t.Fatalf("checkpoint at %d: %v", p, err)
					}
					b, _ := buildSharded(t, r, pools[1])
					if err := b.RestoreCheckpoint(img); err != nil {
						t.Fatalf("restore at %d: %v", p, err)
					}
					if got := string(shardedFinalImage(t, b, budget)); got != want {
						t.Fatalf("pool %d→%d resume from write %d diverged", pools[0], pools[1], p)
					}
				}
			}
		})
	}
}

// TestShardedConfigValidation pins the constructor's rejections: grids
// that don't partition the chip, grids below 2, shards that split OS
// pages, and custom levelers (whose state can't be partitioned).
func TestShardedConfigValidation(t *testing.T) {
	gen := func(shard uint64, shardCfg Config) (trace.Generator, error) {
		return trace.NewUniform(shardCfg.Blocks, shardCfg.Seed)
	}
	cfg := ckptTestConfig()
	cases := []struct {
		name string
		sc   ShardedConfig
		mut  func(*Config)
	}{
		{"grid-1", ShardedConfig{Grid: 1}, nil},
		{"grid-indivisible", ShardedConfig{Grid: 3}, nil},
		{"splits-pages", ShardedConfig{Grid: 4}, func(c *Config) { c.BlocksPerPage = 6 }},
		{"custom-leveler", ShardedConfig{Grid: 4}, func(c *Config) {
			c.CustomLeveler = wear.Static{Size: c.Blocks}
		}},
	}
	for _, tc := range cases {
		c := cfg
		if tc.mut != nil {
			tc.mut(&c)
		}
		if _, err := NewShardedEngine(tc.sc, c, gen); err == nil {
			t.Errorf("%s: constructor accepted invalid config", tc.name)
		}
	}
}

// TestShardedRestoreRejectsGridMismatch: the grid is semantic state — a
// checkpoint taken under one grid must not restore into another.
func TestShardedRestoreRejectsGridMismatch(t *testing.T) {
	r := ckptRoles()[2] // sg-wlr
	a, _ := buildSharded(t, r, 1)
	if a.RunN(500) == 0 {
		t.Fatal("chip stopped immediately")
	}
	img, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptTestConfig()
	b, err := NewShardedEngine(ShardedConfig{Grid: 8, Pool: 1}, cfg,
		func(shard uint64, shardCfg Config) (trace.Generator, error) {
			return r.gen(shardCfg)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreCheckpoint(img); err == nil {
		t.Fatal("restore into different grid succeeded")
	}
	// A monolithic checkpoint is a different model entirely.
	mono := buildRole(t, r)
	if mono.RunN(500) == 0 {
		t.Fatal("engine stopped immediately")
	}
	mimg, err := mono.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := buildSharded(t, r, 1)
	if err := c.RestoreCheckpoint(mimg); err == nil {
		t.Fatal("restore of monolithic checkpoint into sharded chip succeeded")
	}
}

// shardedScale is the failure-dense experiment scale with a 4-shard grid:
// what the sweep-level differentials below drive through Fig8's curve
// runner and the checkpoint plan.
func shardedScale(shards int) Scale {
	return Scale{
		Blocks: 1 << 9, BlocksPerPage: 8, MeanEndurance: 120,
		GapWritePeriod: 10, Seed: 7, MaxWritesPerBlock: 100,
		ShardGrid: shardTestGrid, Shards: shards,
	}
}

// TestShardedExperimentMatchesAcrossShards runs a whole experiment
// (Fig8: curve runner, both protector arms) on the sharded chip at
// -shards 1, 2, 4 and 7 and requires byte-identical formatted output and
// metrics JSON — the end-to-end face of the byte-identity contract, over
// exactly what cmd/paper prints.
func TestShardedExperimentMatchesAcrossShards(t *testing.T) {
	var want string
	for _, shards := range []int{1, 2, 4, 7} {
		s := shardedScale(shards)
		col := newTestCollector()
		s.Observe = col.observe
		got := fig8Signature(t, s, col)
		if shards == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("-shards %d experiment output diverged from -shards 1", shards)
		}
	}
}

// TestShardedCrashResumeAcrossShards is the satellite's cross-width
// crash sweep: crash a sharded Fig8 run under one execution width,
// resume the on-disk checkpoints under another (4→1 and 1→4), and
// require output byte-identical to the uninterrupted run.
func TestShardedCrashResumeAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded crash/resume differential is slow; run without -short")
	}
	s := shardedScale(1)
	col := newTestCollector()
	s.Observe = col.observe
	want := fig8Signature(t, s, col)

	for _, widths := range [][2]int{{4, 1}, {1, 4}} {
		for _, crash := range []uint64{500, 5_000, 15_000, 25_000} {
			dir := t.TempDir()
			s := shardedScale(widths[0])
			s.Observe = newTestCollector().observe
			plan := &CheckpointPlan{Dir: dir, Every: 1 << 11}
			plan.ArmTotalCrash(crash)
			s.Checkpoint = plan
			if _, err := CurveFigure(s, "fig8", "ocean"); err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatalf("crash at %d: %v", crash, err)
			}

			s = shardedScale(widths[1])
			col := newTestCollector()
			s.Observe = col.observe
			s.Checkpoint = &CheckpointPlan{Dir: dir, Every: 1 << 11, Resume: true}
			if got := fig8Signature(t, s, col); got != want {
				t.Errorf("shards %d→%d resume after crash at %d diverged", widths[0], widths[1], crash)
			}
		}
	}
}
