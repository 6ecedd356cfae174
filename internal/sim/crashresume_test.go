package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	"wlreviver/internal/wear"
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
// restored into a differently configured system: one case per
// fingerprinted field that can differ on its own, each refused with an
// error naming that field, plus an image whose retired FREE-p
// pair-coding slot is set. "workload blocks" has no case: NewEngine ties
// it to Blocks, so it never differs alone.
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
		gen    func(Config) (trace.Generator, error)
		img    []byte
	}{
		{"Blocks", func(c *Config) { c.Blocks *= 2 }, nil, img},
		{"BlocksPerPage", func(c *Config) { c.BlocksPerPage *= 2 }, nil, img},
		{"CellsPerBlock", func(c *Config) { c.CellsPerBlock /= 2 }, nil, img},
		{"MeanEndurance", func(c *Config) { c.MeanEndurance *= 2 }, nil, img},
		{"LifetimeCoV", func(c *Config) { c.LifetimeCoV /= 2 }, nil, img},
		{"Seed", func(c *Config) { c.Seed++ }, nil, img},
		{"Leveler", func(c *Config) { c.Leveler = LevelerSecurityRefresh }, nil, img},
		{"GapWritePeriod", func(c *Config) { c.GapWritePeriod++ }, nil, img},
		{"SRInnerRegions", func(c *Config) { c.SRInnerRegions = 4 }, nil, img},
		{"SGRegions", func(c *Config) { c.SGRegions = 4 }, nil, img},
		{"WFRRegions", func(c *Config) { c.WFRRegions = 4 }, nil, img},
		{"SWEpochWrites", func(c *Config) { c.SWEpochWrites = 64 }, nil, img},
		{"CustomLeveler", func(c *Config) { c.CustomLeveler = wear.Static{Size: c.Blocks} }, nil, img},
		{"Protector", func(c *Config) { c.Protector = ProtectorFREEp }, nil, img},
		{"FreepReserveFraction", func(c *Config) { c.FreepReserveFraction = 0.10 }, nil, img},
		{"FreepZombiePairing", func(*Config) {}, nil, retiredSlotSet(t, img)},
		{"LLSChunkPages", func(c *Config) { c.LLSChunkPages *= 2 }, nil, img},
		{"LLSSalvageGroups", func(c *Config) { c.LLSSalvageGroups *= 2 }, nil, img},
		{"LLSBackupFraction", func(c *Config) { c.LLSBackupFraction = 0.25 }, nil, img},
		{"ECC", func(c *Config) { c.ECC = ECCPAYG }, nil, img},
		{"CacheKB", func(c *Config) { c.CacheKB = 4 }, nil, img},
		{"TrackContent", func(c *Config) { c.TrackContent = true }, nil, img},
		{"DisableChainReduction", func(c *Config) { c.DisableChainReduction = true }, nil, img},
		{"ImmediateAcquisition", func(c *Config) { c.ImmediateAcquisition = true }, nil, img},
		{"RevPointerBytes", func(c *Config) { c.RevPointerBytes = 8 }, nil, img},
		{"workload", func(*Config) {}, benchGen("mg"), img},
	} {
		cfg := ckptTestConfig()
		tc.mutate(&cfg)
		newGen := tc.gen
		if newGen == nil {
			newGen = benchGen("ocean")
		}
		gen, err := newGen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewEngine(cfg, gen)
		if err != nil {
			t.Fatalf("%s: %v", tc.field, err)
		}
		err = other.RestoreCheckpoint(tc.img)
		if !errors.Is(err, ErrConfigMismatch) || !strings.Contains(err.Error(), "("+tc.field+" differs)") {
			t.Errorf("%s: restore = %v, want a %s mismatch", tc.field, err, tc.field)
		}
	}
}

// TestCheckpointImageDigests pins the checkpoint bytes every engine
// layer writes: the SHA-256 of each role's image (observer attached)
// after a fixed write count, and of one observed grid-4 sharded chip's.
// A change to a section's name, order or payload, or to the config
// fingerprint, changes a digest here.
func TestCheckpointImageDigests(t *testing.T) {
	const writes = 20_000
	want := map[string]string{
		"static-none":     "47a1fd66eaa92f2e3172cabd7880e58351a04c9476a0e55cfe9399895e336d33",
		"sg-none":         "e11885f8c08fd3c226923a6f4807cf7d402f50287b2586673d17c2d183eddc80",
		"sg-wlr":          "253c58be06d43e590f741e52a798a8b1eb86ba4089159c044a8971722fff6643",
		"sg-wlr-cache":    "2692264030c1473b37bbfa05ce4346db0975b7e7175435fb5b226c76d7b95093",
		"sg-wlr-content":  "d8be78da5ed8cf617853ef9762dfedf94f2a15f8c8f835f24dcf13cc7f81b1b0",
		"sr2l-wlr":        "f186fcc530540ce77ec944601529c343834a474d21ba2b3259a77c9e40258999",
		"rsg-wlr":         "d6076c92b95998ec64b017c94a522d46e826f1876fa5911c92b79954fab29589",
		"sg-freep":        "8a9e65caa81b181236d2293a1f46ff7f4ef8a7e4dc4ef9f89fc661675e18ea75",
		"sg-lls":          "e7cd2ac026c32f56b12a2f75bbd869f9481548302326a2f07c9d8a674a6558a2",
		"wfr-wlr":         "cdeea218dc55d0c35c3a0006d9ed241a19b1a9b9a2c029f644a6c4e55529410e",
		"wfr-freep":       "d9b64243863167db905288a7f574233b641669ca626bb7937cc0e239aa3ea52a",
		"sw-wlr":          "1ccd2cdef2fd46e8b4c66cdfc303c66fde506dd362c195660e50fba7779b8a87",
		"sw-lls":          "05d2180ea30b63d14876228ad8049f34af611d1370103ebf4800c7c6fdd40a50",
		"sg-wlr-hammer":   "91109ad6a87d46edf80bda3c80d072177a3802f1cb8ff4bd9dc7d11e22cf8974",
		"sg-wlr-birthday": "5e446e91b789a37017cb9963649146b60f34b6603e9a11e274507d9d25d2036c",
		"sharded-sg-wlr":  "348d7812b0a12cd9d20197e6647dcfdd6a9431f789444ce494dfa73008cab952",
	}
	digest := func(img []byte) string {
		sum := sha256.Sum256(img)
		return hex.EncodeToString(sum[:])
	}
	for _, r := range ckptRoles() {
		if got := digest(finalImage(t, buildRole(t, r), writes)); got != want[r.name] {
			t.Errorf("%s: image sha256 %s, want %s", r.name, got, want[r.name])
		}
	}
	se, _ := buildSharded(t, ckptRoles()[2], 1) // sg-wlr
	if got := digest(shardedFinalImage(t, se, writes)); got != want["sharded-sg-wlr"] {
		t.Errorf("sharded-sg-wlr: image sha256 %s, want %s", got, want["sharded-sg-wlr"])
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
