package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wlreviver/internal/freep"
	"wlreviver/internal/obs"
	"wlreviver/internal/reviver"
	"wlreviver/internal/trace"
)

// ckptRole is one engine configuration exercised by the checkpoint
// differential harness. Together the 15 roles cover every stateful
// layer: each protector, each leveler, both ECC families, the remap
// cache, content tracking and the attack workloads.
type ckptRole struct {
	name   string
	mutate func(*Config)
	gen    func(cfg Config) (trace.Generator, error)
}

// benchGen returns a Weighted-benchmark generator factory.
func benchGen(name string) func(cfg Config) (trace.Generator, error) {
	return func(cfg Config) (trace.Generator, error) {
		return trace.NewBenchmark(name, cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
	}
}

func ckptRoles() []ckptRole {
	ocean := benchGen("ocean")
	return []ckptRole{
		{"static-none", func(c *Config) { c.Leveler = LevelerNone; c.Protector = ProtectorNone }, ocean},
		{"sg-none", func(c *Config) { c.Protector = ProtectorNone }, ocean},
		{"sg-wlr", func(c *Config) {}, ocean},
		{"sg-wlr-cache", func(c *Config) { c.CacheKB = 4 }, ocean},
		{"sg-wlr-content", func(c *Config) { c.TrackContent = true }, ocean},
		{"sr2l-wlr", func(c *Config) {
			c.Leveler = LevelerSecurityRefresh
			c.SRInnerRegions = 4
			c.ECC = ECCPAYG
		}, ocean},
		{"rsg-wlr", func(c *Config) {
			c.Leveler = LevelerRegionedStartGap
			c.SGRegions = 4
		}, ocean},
		{"sg-freep", func(c *Config) {
			c.Protector = ProtectorFREEp
			c.FreepReserveFraction = 0.10
			c.ECC = ECCECP1
		}, ocean},
		{"sg-lls", func(c *Config) { c.Protector = ProtectorLLS }, benchGen("mg")},
		{"wfr-wlr", func(c *Config) {
			c.Leveler = LevelerWoLFRaM
			c.WFRRegions = 8
		}, ocean},
		{"wfr-freep", func(c *Config) {
			c.Leveler = LevelerWoLFRaM
			c.Protector = ProtectorFREEp
			c.FreepReserveFraction = 0.10
		}, benchGen("mg")},
		{"sw-wlr", func(c *Config) { c.Leveler = LevelerSoftWear }, ocean},
		// A chunk reservation here relocates data onto a block failing at
		// that moment; its restore fails if LLS lists that block twice.
		{"sw-lls", func(c *Config) {
			c.Leveler = LevelerSoftWear
			c.SWEpochWrites = 64
			c.Protector = ProtectorLLS
		}, benchGen("mg")},
		{"sg-wlr-hammer", func(c *Config) {}, func(cfg Config) (trace.Generator, error) {
			return trace.NewHammer(cfg.Blocks, []uint64{3, 41, 97})
		}},
		{"sg-wlr-birthday", func(c *Config) {}, func(cfg Config) (trace.Generator, error) {
			return trace.NewBirthdayParadox(cfg.Blocks, 8, 512, cfg.Seed)
		}},
	}
}

// ckptTestConfig is a small, failure-dense system: low endurance brings
// revives, gap moves, region swaps and page retirements within a few
// tens of thousands of writes.
func ckptTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 9
	cfg.BlocksPerPage = 8
	cfg.MeanEndurance = 120
	cfg.GapWritePeriod = 10
	cfg.Seed = 7
	return cfg
}

// buildRole constructs a fresh engine for the role, attaching a metrics
// observer so observer state rides through every checkpoint.
func buildRole(t *testing.T, r ckptRole) *Engine {
	t.Helper()
	cfg := ckptTestConfig()
	r.mutate(&cfg)
	gen, err := r.gen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = obs.NewMetrics()
	cfg.SnapshotEvery = 1000
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// finalImage drives the engine to the budget and returns its complete
// final state as checkpoint bytes — the strongest equality oracle the
// system has: every layer, the write cursor, the workload position and
// the accumulated metrics, byte for byte.
func finalImage(t *testing.T, e *Engine, budget uint64) []byte {
	t.Helper()
	for e.Writes() < budget && e.RunN(budget-e.Writes()) > 0 {
	}
	img, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCheckpointRoundTrip checkpoints every role mid-run at swept
// points — including just after a gap move / region swap (ψ grid) and
// around the first block failure, when revives and remap chains are in
// flight — restores into a fresh engine, and requires the resumed run's
// complete final state to be byte-identical to the uninterrupted run's.
func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint differential sweep is slow; run without -short")
	}
	const budget = 40_000
	for _, r := range ckptRoles() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			// Uninterrupted reference run, plus the write count of the
			// first block failure so the sweep brackets it.
			ref := buildRole(t, r)
			firstFail := uint64(0)
			for ref.Writes() < budget {
				if ref.RunN(1) == 0 {
					break
				}
				if firstFail == 0 && ref.Device().DeadBlocks() > 0 {
					firstFail = ref.Writes()
				}
			}
			want, err := ref.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			psi := ref.cfg.GapWritePeriod
			points := []uint64{1, 137, psi * 3, psi*5 + 1, budget / 2, budget - 1}
			if firstFail > 1 {
				points = append(points, firstFail-1, firstFail, firstFail+1)
			}
			for _, p := range points {
				if p == 0 || p >= budget {
					continue
				}
				// Run a fresh engine to the checkpoint point...
				a := buildRole(t, r)
				for a.Writes() < p && a.RunN(p-a.Writes()) > 0 {
				}
				img, err := a.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint at %d: %v", p, err)
				}
				// ...restore into another fresh engine and finish there.
				b := buildRole(t, r)
				if err := b.RestoreCheckpoint(img); err != nil {
					t.Fatalf("restore at %d: %v", p, err)
				}
				got := finalImage(t, b, budget)
				if string(got) != string(want) {
					t.Fatalf("resume from write %d diverged from uninterrupted run", p)
				}
			}
		})
	}
}

// TestRestoreRejectsMismatchedConfig ensures a checkpoint cannot be
// restored into a differently configured system, and that an image
// whose retired FREE-p pair-coding fingerprint slot is set is refused.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	r := ckptRoles()[2] // sg-wlr
	e := buildRole(t, r)
	if e.RunN(500) == 0 {
		t.Fatal("engine stopped immediately")
	}
	img, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
		img    []byte
	}{
		{"Seed", func(c *Config) { c.Seed++ }, img},
		{"GapWritePeriod", func(c *Config) { c.GapWritePeriod++ }, img},
		{"Protector", func(c *Config) { c.Protector = ProtectorFREEp }, img},
		{"ECC", func(c *Config) { c.ECC = ECCPAYG }, img},
		{"MeanEndurance", func(c *Config) { c.MeanEndurance *= 2 }, img},
		{"FreepZombiePairing", func(*Config) {}, retiredSlotSet(t, img)},
	} {
		cfg := ckptTestConfig()
		tc.mutate(&cfg)
		gen, err := benchGen("ocean")(cfg)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewEngine(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		err = other.RestoreCheckpoint(tc.img)
		if !errors.Is(err, ErrConfigMismatch) || !strings.Contains(err.Error(), "("+tc.field+" differs)") {
			t.Errorf("%s: restore = %v, want a %s mismatch", tc.field, err, tc.field)
		}
	}
}

// retiredSlotSet returns img with the config fingerprint's retired
// FREE-p pair-coding slot set to true and the section CRC refreshed.
func retiredSlotSet(t *testing.T, img []byte) []byte {
	t.Helper()
	const (
		// File header, then the config section's name and length frame.
		payload = 4 + 4 + 2 + len("config") + 8
		// Twelve 8-byte fields, the empty CustomLeveler name, Protector
		// and FreepReserveFraction precede the slot.
		slot = payload + 12*8 + 4 + 2*8
	)
	out := bytes.Clone(img)
	end := payload + int(binary.LittleEndian.Uint64(out[payload-8:]))
	if out[slot] != 0 {
		t.Fatalf("retired slot holds %d, want 0", out[slot])
	}
	out[slot] = 1
	binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[payload:end]))
	return out
}

// TestFreepCheckpointFixture pins the checkpoint format across the
// removal of FREE-p's pair-coding variant. testdata/freep10.ckpt was
// written before that removal by a FREE-p(10%) engine run past its
// first slot allocations.
func TestFreepCheckpointFixture(t *testing.T) {
	restored := pinCheckpointFixture(t, "freep10.ckpt", func(cfg *Config) {
		cfg.Protector = ProtectorFREEp
		cfg.FreepReserveFraction = 0.10
	})
	if restored.Protector().(*freep.FREEp).Stats().SlotsUsed == 0 {
		t.Fatal("fixture has an empty remap table")
	}
}

// TestReviverCheckpointFixture pins WL-Reviver's checkpoint section
// across the merge of its reboot image into that section.
// testdata/wlr.ckpt was written before the merge by WL-Reviver over
// Start-Gap (seed 17), stopped at the first write that left a delivery
// suspended while the arena held links and a spare, so every arena
// field and the suspension state are in the image.
func TestReviverCheckpointFixture(t *testing.T) {
	restored := pinCheckpointFixture(t, "wlr.ckpt", func(cfg *Config) { cfg.Seed = 17 })
	rv := restored.Protector().(*reviver.Reviver)
	if !rv.HasPending() || rv.LinkedFailures() == 0 || rv.AvailableSpares() == 0 {
		t.Fatalf("fixture lacks a suspension, links or spares: pending %v, %d links, %d spares",
			rv.HasPending(), rv.LinkedFailures(), rv.AvailableSpares())
	}
}

// pinCheckpointFixture restores testdata/name into an engine built from
// ckptTestConfig plus mutate and requires it to re-emit identical bytes;
// a fresh engine run to the same write count must emit them too. It
// returns the restored engine for protector-specific checks.
func pinCheckpointFixture(t *testing.T, name string, mutate func(*Config)) *Engine {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Engine {
		cfg := ckptTestConfig()
		mutate(&cfg)
		gen, err := benchGen("ocean")(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	restored := build()
	if err := restored.RestoreCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Checkpoint(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored engine re-emits a different image (err %v)", err)
	}
	fresh := build()
	if got := finalImage(t, fresh, restored.Writes()); !bytes.Equal(got, want) {
		t.Fatalf("fresh run to %d writes diverges from the fixture", restored.Writes())
	}
	return restored
}

// testCollector mirrors cmd/paper's -metrics collection: one Metrics
// accumulator per engine key, marshalled deterministically.
type testCollector struct {
	mu    sync.Mutex
	byKey map[string]*obs.Metrics
}

func newTestCollector() *testCollector {
	return &testCollector{byKey: make(map[string]*obs.Metrics)}
}

func (c *testCollector) observe(key string) obs.Observer {
	m := obs.NewMetrics()
	c.mu.Lock()
	c.byKey[key] = m
	c.mu.Unlock()
	return m
}

func (c *testCollector) json(t *testing.T) string {
	t.Helper()
	c.mu.Lock()
	reports := make(map[string]obs.Report, len(c.byKey))
	for key, m := range c.byKey {
		reports[key] = m.Report()
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// fig8Signature captures everything the experiment reports: the
// formatted stdout block plus the collected metrics JSON.
func fig8Signature(t *testing.T, s Scale, col *testCollector) string {
	t.Helper()
	res, err := CurveFigure(s, "fig8", "ocean")
	if err != nil {
		t.Fatal(err)
	}
	return res.String() + "\n" + col.json(t)
}

// TestCrashResumeEquivalence is the sweep-level differential harness:
// Fig8 (curve runner) and Table2 (ladder runner, remap cache) at a
// failure-dense scale, crashed at ≥8 swept points via the sweep-wide
// budget, resumed, and required to match the uninterrupted run's
// formatted output and metrics JSON byte for byte — at workers 1 and 4.
func TestCrashResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("crash/resume differential sweep is slow; run without -short")
	}
	scale := Scale{
		Blocks: 1 << 9, BlocksPerPage: 8, MeanEndurance: 120,
		GapWritePeriod: 10, Seed: 7, MaxWritesPerBlock: 100,
	}

	baseline := func(workers int) (string, string) {
		s := scale
		s.Workers = workers
		col := newTestCollector()
		s.Observe = col.observe
		fig8 := fig8Signature(t, s, col)

		s = scale
		s.Workers = workers
		t2, err := Table2(s, []string{"ocean"})
		if err != nil {
			t.Fatal(err)
		}
		return fig8, t2.String()
	}
	wantFig8, wantT2 := baseline(1)

	// The sweep totals ~28.7k writes (WLR stops near 20.5k, LLS near
	// 8.2k), so these points land before, around and after every batch
	// boundary, mid-failure-burst and on both arms' endgames; 2_048 ends
	// the budget exactly at a batch end (a full batch, then the crash).
	crashPoints := []uint64{1, 500, 2_000, 2_048, 5_000, 7_777, 11_111, 15_000, 20_000, 25_000, 28_000}
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if f8, t2 := baseline(workers); f8 != wantFig8 || t2 != wantT2 {
				t.Fatal("uninterrupted runs differ across workers")
			}
			for _, crash := range crashPoints {
				dir := t.TempDir()

				// Crashed attempt: must fail with ErrCrashed (or complete,
				// for crash points past the sweep's total) and leave only
				// consistent checkpoints behind. It observes too, so the
				// checkpointed metrics cover the pre-crash writes.
				s := scale
				s.Workers = workers
				s.Observe = newTestCollector().observe
				plan := &CheckpointPlan{Dir: dir, Every: 1 << 11}
				plan.ArmTotalCrash(crash)
				s.Checkpoint = plan
				if _, err := CurveFigure(s, "fig8", "ocean"); err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatalf("crash at %d: %v", crash, err)
				}

				// Resumed run: byte-identical to uninterrupted.
				s = scale
				s.Workers = workers
				col := newTestCollector()
				s.Observe = col.observe
				s.Checkpoint = &CheckpointPlan{Dir: dir, Every: 1 << 11, Resume: true}
				if got := fig8Signature(t, s, col); got != wantFig8 {
					t.Errorf("fig8 resumed after crash at %d diverged", crash)
				}
			}

			// Table2's ladder runner, once per worker count: crash mid-run,
			// resume, compare.
			dir := t.TempDir()
			s := scale
			s.Workers = workers
			plan := &CheckpointPlan{Dir: dir, Every: 1 << 11}
			plan.ArmTotalCrash(9_999)
			s.Checkpoint = plan
			if _, err := Table2(s, []string{"ocean"}); err != nil && !errors.Is(err, ErrCrashed) {
				t.Fatal(err)
			}
			s = scale
			s.Workers = workers
			s.Checkpoint = &CheckpointPlan{Dir: dir, Every: 1 << 11, Resume: true}
			t2, err := Table2(s, []string{"ocean"})
			if err != nil {
				t.Fatal(err)
			}
			if t2.String() != wantT2 {
				t.Error("table2 resumed after crash diverged")
			}
		})
	}
}

// TestCrashResumeEquivalenceNewLevelers runs the same sweep-level
// differential over the wolfram and softwear protection ladders: crash
// each 4-arm ladder at swept points, resume, and require the
// formatted output plus the collected metrics JSON (which carries the
// decoder-remap / page-relocation counters through the checkpoint) to
// match the uninterrupted run byte for byte — at workers 1 and 4.
func TestCrashResumeEquivalenceNewLevelers(t *testing.T) {
	if testing.Short() {
		t.Skip("crash/resume differential sweep is slow; run without -short")
	}
	scale := Scale{
		Blocks: 1 << 9, BlocksPerPage: 8, MeanEndurance: 120,
		GapWritePeriod: 10, Seed: 7, MaxWritesPerBlock: 100,
	}
	for _, exp := range []string{"wolfram", "softwear"} {
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			signature := func(s Scale) string {
				col := newTestCollector()
				s.Observe = col.observe
				res, err := CurveFigure(s, exp, "ocean")
				if err != nil {
					t.Fatal(err)
				}
				return res.String() + "\n" + col.json(t)
			}
			ref := scale
			ref.Workers = 1
			want := signature(ref)

			for _, workers := range []int{1, 4} {
				s := scale
				s.Workers = workers
				if got := signature(s); got != want {
					t.Fatalf("uninterrupted %s run differs at workers=%d", exp, workers)
				}
				for _, crash := range []uint64{1, 2_000, 7_777, 15_000, 26_000} {
					dir := t.TempDir()
					s := scale
					s.Workers = workers
					s.Observe = newTestCollector().observe
					plan := &CheckpointPlan{Dir: dir, Every: 1 << 11}
					plan.ArmTotalCrash(crash)
					s.Checkpoint = plan
					if _, err := CurveFigure(s, exp, "ocean"); err != nil && !errors.Is(err, ErrCrashed) {
						t.Fatalf("crash at %d: %v", crash, err)
					}

					s = scale
					s.Workers = workers
					s.Checkpoint = &CheckpointPlan{Dir: dir, Every: 1 << 11, Resume: true}
					if got := signature(s); got != want {
						t.Errorf("%s resumed after crash at %d (workers=%d) diverged", exp, crash, workers)
					}
				}
			}
		})
	}
}

// TestResumeRejectsCorruptFile ensures a corrupted on-disk checkpoint
// fails the resume loudly instead of silently diverging.
func TestResumeRejectsCorruptFile(t *testing.T) {
	scale := Scale{
		Blocks: 1 << 9, BlocksPerPage: 8, MeanEndurance: 120,
		GapWritePeriod: 10, Seed: 7, MaxWritesPerBlock: 20,
	}
	dir := t.TempDir()
	s := scale
	s.Checkpoint = &CheckpointPlan{Dir: dir, Every: 1 << 11}
	if _, err := CurveFigure(s, "fig8", "ocean"); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files written: %v", err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = scale
	s.Checkpoint = &CheckpointPlan{Dir: dir, Every: 1 << 11, Resume: true}
	if _, err := CurveFigure(s, "fig8", "ocean"); err == nil {
		t.Fatal("resume from corrupt checkpoint succeeded")
	}
}
