package pcm

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"wlreviver/internal/rng"
	"wlreviver/internal/stats"
)

func testConfig(blocks uint64, endurance float64) Config {
	return Config{
		NumBlocks:     blocks,
		BlockBytes:    64,
		CellsPerBlock: 512,
		MeanEndurance: endurance,
		LifetimeCoV:   0.2,
		Seed:          42,
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{NumBlocks: 1, BlockBytes: 0, CellsPerBlock: 1, MeanEndurance: 1},
		{NumBlocks: 1, BlockBytes: 64, CellsPerBlock: 0, MeanEndurance: 1},
		{NumBlocks: 1, BlockBytes: 64, CellsPerBlock: 1, MeanEndurance: 0},
		{NumBlocks: 1, BlockBytes: 64, CellsPerBlock: 1, MeanEndurance: 1, LifetimeCoV: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := NewDevice(c); err == nil {
			t.Errorf("case %d: NewDevice accepted invalid config", i)
		}
	}
}

func TestWriteWears(t *testing.T) {
	d, err := NewDevice(testConfig(16, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Write(3)
	}
	if d.Wear(3) != 10 {
		t.Errorf("wear = %d, want 10", d.Wear(3))
	}
	if d.Wear(4) != 0 {
		t.Errorf("untouched block has wear %d", d.Wear(4))
	}
	if got := d.Stats().Writes; got != 10 {
		t.Errorf("stats writes = %d, want 10", got)
	}
	d.Read(3)
	if got := d.Stats().Reads; got != 1 {
		t.Errorf("stats reads = %d, want 1", got)
	}
	if got := d.Stats().Total(); got != 11 {
		t.Errorf("stats total = %d, want 11", got)
	}
}

func TestReadDoesNotWear(t *testing.T) {
	d, _ := NewDevice(testConfig(4, 100))
	for i := 0; i < 1000; i++ {
		d.Read(0)
	}
	if d.Wear(0) != 0 {
		t.Error("reads should not wear")
	}
	if d.FailedCells(0) != 0 {
		t.Error("reads should not fail cells")
	}
}

// Writing a block well past its mean endurance must eventually fail cells,
// and cell failures must be reported exactly once each.
func TestCellFailuresAccumulate(t *testing.T) {
	d, _ := NewDevice(testConfig(4, 1000))
	total := 0
	for i := 0; i < 3000; i++ {
		total += d.Write(0)
		if total != d.FailedCells(0) {
			t.Fatalf("reported failures %d != tracked %d", total, d.FailedCells(0))
		}
	}
	if total == 0 {
		t.Fatal("no cell failed after 3x mean endurance")
	}
	// At 3x mean endurance with CoV 0.2 essentially every cell is dead.
	if total < 500 {
		t.Errorf("only %d/512 cells failed after 3x mean endurance", total)
	}
	if total > 512 {
		t.Errorf("%d failures exceed 512 cells", total)
	}
}

// The first-failure threshold should be well below the mean endurance
// (minimum of 512 normal variates) but positive.
func TestFirstFailureThreshold(t *testing.T) {
	d, _ := NewDevice(testConfig(1024, 1e4))
	var w stats.Welford
	for b := uint64(0); b < 1024; b++ {
		th := float64(d.PeekNextFailure(BlockID(b)))
		if th < 1 {
			t.Fatalf("block %d threshold %v < 1", b, th)
		}
		w.Add(th)
	}
	// E[min of 512 N(1e4, 2e3)] ~ mu - sigma*E[max of 512 std normals]
	// ~ 1e4 - 2e3*3.05 ~ 3900. Allow a generous band.
	if w.Mean() < 2500 || w.Mean() > 6000 {
		t.Errorf("mean first-failure threshold %v outside plausible band [2500, 6000]", w.Mean())
	}
}

// Failure thresholds are strictly increasing per block (order statistics).
func TestThresholdsMonotone(t *testing.T) {
	d, _ := NewDevice(testConfig(8, 1000))
	prev := uint64(0)
	for i := 0; i < 5000; i++ {
		if d.Write(1) > 0 {
			th := d.PeekNextFailure(1)
			if th <= prev && th != math.MaxUint64 {
				t.Fatalf("threshold %d not increasing past %d", th, prev)
			}
			prev = th
		}
	}
}

// After all cells fail, the next threshold is MaxUint64 and no more
// failures are reported.
func TestAllCellsExhausted(t *testing.T) {
	cfg := testConfig(2, 50)
	cfg.CellsPerBlock = 4
	d, _ := NewDevice(cfg)
	total := 0
	for i := 0; i < 500; i++ {
		total += d.Write(0)
	}
	if total != 4 {
		t.Fatalf("expected exactly 4 cell failures, got %d", total)
	}
	if d.PeekNextFailure(0) != math.MaxUint64 {
		t.Error("exhausted block should report MaxUint64 next failure")
	}
}

// The failure schedule of a block must not depend on writes to other
// blocks (deterministic per (seed, block)).
func TestScheduleIndependentOfAccessOrder(t *testing.T) {
	d1, _ := NewDevice(testConfig(8, 500))
	d2, _ := NewDevice(testConfig(8, 500))
	// d2 interleaves writes to other blocks.
	fail1, fail2 := []int{}, []int{}
	for i := 0; i < 2000; i++ {
		fail1 = append(fail1, d1.Write(3))
		d2.Write(5)
		fail2 = append(fail2, d2.Write(3))
		d2.Write(7)
	}
	for i := range fail1 {
		if fail1[i] != fail2[i] {
			t.Fatalf("failure schedule of block 3 diverged at write %d", i)
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	cfgA := testConfig(8, 500)
	cfgB := testConfig(8, 500)
	cfgB.Seed = 43
	a, _ := NewDevice(cfgA)
	b, _ := NewDevice(cfgB)
	if a.PeekNextFailure(0) == b.PeekNextFailure(0) && a.PeekNextFailure(1) == b.PeekNextFailure(1) {
		t.Error("different seeds should shift failure thresholds")
	}
}

func TestMarkDeadAndSurvival(t *testing.T) {
	d, _ := NewDevice(testConfig(10, 1e6))
	if d.SurvivalRate() != 1 {
		t.Fatal("fresh device should have survival 1")
	}
	d.MarkDead(3)
	d.MarkDead(3) // idempotent
	d.MarkDead(7)
	if !d.Dead(3) || !d.Dead(7) || d.Dead(0) {
		t.Error("dead flags wrong")
	}
	if d.DeadBlocks() != 2 {
		t.Errorf("dead count = %d, want 2", d.DeadBlocks())
	}
	if got := d.SurvivalRate(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("survival = %v, want 0.8", got)
	}
}

func TestContentTracking(t *testing.T) {
	cfg := testConfig(8, 1e6)
	cfg.TrackContent = true
	d, _ := NewDevice(cfg)
	if !d.TracksContent() {
		t.Fatal("TrackContent not honoured")
	}
	d.SetContent(2, 99)
	if d.Content(2) != 99 {
		t.Error("content tag lost")
	}
	// Without tracking, content is inert.
	d2, _ := NewDevice(testConfig(8, 1e6))
	d2.SetContent(1, 5)
	if d2.Content(1) != 0 || d2.TracksContent() {
		t.Error("untracked device should ignore content")
	}
}

func TestWearCountsCopy(t *testing.T) {
	d, _ := NewDevice(testConfig(4, 1e6))
	d.Write(1)
	counts := d.WearCounts()
	counts[1] = 999
	if d.Wear(1) != 1 {
		t.Error("WearCounts must return a copy")
	}
}

// Empirical distribution of first-failure thresholds across many blocks
// should match the analytic minimum-order-statistic quantiles: compare
// medians of simulated vs. brute-force sorted samples.
func TestOrderStatisticsMatchBruteForce(t *testing.T) {
	const blocks = 512
	cfg := testConfig(blocks, 1e4)
	cfg.CellsPerBlock = 64
	d, _ := NewDevice(cfg)
	sim := make([]float64, blocks)
	for b := uint64(0); b < blocks; b++ {
		sim[b] = float64(d.PeekNextFailure(BlockID(b)))
	}
	// Brute force: sample 64 normals per block, take min.
	brute := make([]float64, blocks)
	bsrc := bruteNormals(77, blocks, 64, 1e4, 2e3)
	for i, lifes := range bsrc {
		sort.Float64s(lifes)
		brute[i] = lifes[0]
	}
	simMed := stats.Percentile(sim, 50)
	bruteMed := stats.Percentile(brute, 50)
	if math.Abs(simMed-bruteMed) > 0.12*bruteMed {
		t.Errorf("median first-failure mismatch: sim %v vs brute %v", simMed, bruteMed)
	}
}

// bruteNormals generates blocks x cells normal lifetimes with a simple
// deterministic LCG-free approach reusing the package RNG via device.
func bruteNormals(seed uint64, blocks, cells int, mu, sigma float64) [][]float64 {
	out := make([][]float64, blocks)
	// Use a separate device-independent generator: Box-Muller over cellU-like hashing.
	s := newTestNormSource(seed)
	for b := range out {
		out[b] = make([]float64, cells)
		for c := range out[b] {
			out[b][c] = mu + sigma*s.next()
		}
	}
	return out
}

type testNormSource struct{ state uint64 }

func newTestNormSource(seed uint64) *testNormSource { return &testNormSource{state: seed} }

func (s *testNormSource) next() float64 {
	// splitmix64 + inverse via erfinv for a standard normal
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	u := (float64(z>>11) + 0.5) / (1 << 53)
	return math.Sqrt2 * math.Erfinv(2*u-1)
}

// Property: Write never reports negative failures and FailedCells never
// exceeds CellsPerBlock.
func TestQuickFailureBounds(t *testing.T) {
	cfg := testConfig(16, 200)
	cfg.CellsPerBlock = 8
	d, _ := NewDevice(cfg)
	f := func(b uint8, n uint8) bool {
		blk := BlockID(b % 16)
		for i := 0; i < int(n); i++ {
			if d.Write(blk) < 0 {
				return false
			}
		}
		return d.FailedCells(blk) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteHotPath(b *testing.B) {
	d, _ := NewDevice(testConfig(1<<16, 1e9))
	mask := uint64(1<<16 - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(BlockID(uint64(i) & mask))
	}
}

// BenchmarkWriteFailurePath measures the order-statistic draw that runs
// on every cell failure — the degraded-chip write cost. Low endurance
// with high CoV makes nearly every write advance the failure schedule.
func BenchmarkWriteFailurePath(b *testing.B) {
	cfg := testConfig(1<<10, 64)
	cfg.LifetimeCoV = 0.3
	d, _ := NewDevice(cfg)
	mask := uint64(1<<10 - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := BlockID(uint64(i) & mask)
		if d.FailedCells(blk) >= cfg.CellsPerBlock-1 {
			b.StopTimer()
			d, _ = NewDevice(cfg)
			b.StartTimer()
		}
		d.Write(blk)
	}
}

// BenchmarkWriteNearFailure measures writes to a degraded bench-scale
// chip: 2^13 blocks plus Start-Gap's gap block at endurance 2500, worn
// by set-up (outside the timer) to 150 uniform writes per block, where
// the weak tail keeps the minimum failure margin at a few writes and the
// horizon re-arms every few writes. BenchmarkWriteFailurePath's 1024
// blocks are too few to show what each re-arm costs. The timed writes
// restart from the set-up checkpoint every 2^18 writes, so the regime
// does not drift with b.N; set-up fails the benchmark if it did not
// reach the regime.
func BenchmarkWriteNearFailure(b *testing.B) {
	const (
		blocks  = 1<<13 + 1
		perSeg  = 1 << 18
		seqMask = 1<<16 - 1
	)
	cfg := testConfig(blocks, 2500)
	d, err := NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	seq := make([]BlockID, seqMask+1)
	for i := range seq {
		seq[i] = BlockID(src.Uint64n(blocks))
	}
	for i := 0; i < 150*blocks; i++ {
		d.Write(seq[i&seqMask])
	}
	image := saveDevice(d)
	rescans := 0
	for i := 0; i < 1<<12; i++ {
		if d.horizon == 0 && d.rescanIn == 0 {
			rescans++
		}
		d.Write(seq[i&seqMask])
	}
	if rescans < 1<<12/100 {
		b.Fatalf("set-up left the chip outside the near-failure regime: %d rescans in %d writes", rescans, 1<<12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perSeg == 0 {
			b.StopTimer()
			d = loadDevice(b, cfg, image)
			b.StartTimer()
		}
		d.Write(seq[i&seqMask])
	}
}

// BenchmarkNewDevice measures construction, which performs one
// order-statistic draw per block.
func BenchmarkNewDevice(b *testing.B) {
	cfg := testConfig(1<<16, 1e9)
	for i := 0; i < b.N; i++ {
		if _, err := NewDevice(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeadBitsetWrite measures the fast-path write with the dead
// set populated the way a late-life chip looks: a scattering of dead
// blocks forcing every WriteNoFail through the packed-bitset membership
// test (the structure that replaced the map[BlockID]struct{} dead set).
// Dead hits return false immediately; live hits take the horizon
// decrement. Both sides of that branch are the per-write cost the
// bitset layout optimises.
func BenchmarkDeadBitsetWrite(b *testing.B) {
	const blocks = 1 << 16
	d, _ := NewDevice(testConfig(blocks, 1e9))
	for blk := uint64(0); blk < blocks; blk += 17 {
		d.MarkDead(BlockID(blk)) // ~6% dead, striped across the words
	}
	mask := uint64(blocks - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := BlockID(uint64(i) & mask)
		if !d.WriteNoFail(blk) && !d.Dead(blk) {
			d.Write(blk)
		}
	}
}
