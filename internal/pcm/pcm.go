// Package pcm models a phase-change-memory chip at memory-block
// granularity with a cell-level endurance model.
//
// A block is the wear-leveling and access unit (64 B in the paper, the
// last-level-cache line size). Each block contains Config.CellsPerBlock
// cells (bits of a 512-bit ECC group in the paper's setup). Every cell has
// a finite lifetime in writes, drawn from a normal distribution
// N(MeanEndurance, (LifetimeCoV*MeanEndurance)^2) as in the paper's setup
// (Section IV-A: 10^8 writes, CoV 0.2). Each write to a block wears all of
// its cells by one; a cell fails permanently when the block's write count
// reaches the cell's lifetime.
//
// Materialising per-cell lifetimes would cost CellsPerBlock values per
// block, so the device instead generates, per block, the ascending order
// statistics of the cell lifetimes lazily and one at a time: the k-th
// smallest of C i.i.d. uniforms is generated sequentially from the
// (k-1)-th via the standard beta-spacing recurrence, then mapped through
// the normal quantile function. Only the next-to-fail threshold is stored.
//
// The hot per-block state is structure-of-arrays: two flat uint64 slices
// (wear counters and next-failure thresholds) that the write path and the
// horizon rescan walk linearly, plus two packed bitsets (dead blocks and
// materialized schedules). Blocks that have never approached a failure
// carry only a quantized lower bound on their first threshold, looked up
// in a small table shared process-wide per endurance model; the exact
// threshold — bit-identical to the eager computation — is materialized
// the first time the lower bound is crossed, and the handful of blocks
// with materialized schedules live in a sparse index instead of three
// more per-block arrays.
//
// Writes that cannot fail a cell skip all failure bookkeeping under a
// chip-wide failure horizon. Re-arming it reads only the 8-block chunks
// written since the last re-arm, against a tournament tree of per-chunk
// minimum margins, so a degraded chip that re-arms every few writes
// reads a few chunks per re-arm instead of the whole chip.
//
// The device is policy-free: it reports new cell failures on each write
// and lets an error-correction scheme (package ecc) decide when a block is
// dead. Dead blocks keep accepting accesses (a real chip cannot refuse
// them); higher layers are responsible for redirection.
package pcm

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"wlreviver/internal/bitset"
	"wlreviver/internal/obs"
	"wlreviver/internal/rng"
	"wlreviver/internal/stats"
)

// BlockID is a device address (DA) in units of blocks.
type BlockID uint64

// Config describes the simulated chip geometry and endurance model.
type Config struct {
	// NumBlocks is the number of addressable blocks, including any extra
	// blocks a wear-leveling scheme needs (e.g. Start-Gap's gap block).
	NumBlocks uint64
	// BlockBytes is the block size in bytes (paper: 64).
	BlockBytes int
	// CellsPerBlock is the number of endurance-limited cells per block
	// (paper: 512-bit ECC group).
	CellsPerBlock int
	// MeanEndurance is the mean cell lifetime in writes (paper: 1e8;
	// simulations scale it down, see DESIGN.md).
	MeanEndurance float64
	// LifetimeCoV is the coefficient of variation of cell lifetime due to
	// process variation (paper: 0.2).
	LifetimeCoV float64
	// Seed makes the chip's process variation reproducible.
	Seed uint64
	// TrackContent, when set, records a logical tag per block so tests can
	// verify no data is lost across migrations. Costs 8 B/block.
	TrackContent bool
}

// DefaultConfig returns the scaled-down default geometry used by tests
// and benches: 2^16 blocks of 64 B (4 MiB), mean endurance 10^4.
func DefaultConfig() Config {
	return Config{
		NumBlocks:     1 << 16,
		BlockBytes:    64,
		CellsPerBlock: 512,
		MeanEndurance: 1e4,
		LifetimeCoV:   0.2,
		Seed:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumBlocks == 0:
		return fmt.Errorf("pcm: NumBlocks must be positive")
	case c.BlockBytes <= 0:
		return fmt.Errorf("pcm: BlockBytes must be positive, got %d", c.BlockBytes)
	case c.CellsPerBlock <= 0:
		return fmt.Errorf("pcm: CellsPerBlock must be positive, got %d", c.CellsPerBlock)
	case c.MeanEndurance <= 0:
		return fmt.Errorf("pcm: MeanEndurance must be positive, got %g", c.MeanEndurance)
	case c.LifetimeCoV < 0:
		return fmt.Errorf("pcm: LifetimeCoV must be non-negative, got %g", c.LifetimeCoV)
	}
	return nil
}

// AccessStats counts raw device accesses. The paper's Table II reports
// average PCM accesses per software-issued request; the layers above the
// device add their indirection accesses here.
type AccessStats struct {
	Reads  uint64
	Writes uint64
}

// Total returns reads+writes.
func (a AccessStats) Total() uint64 { return a.Reads + a.Writes }

// failState is a block's materialized failure-schedule position: how many
// cells have failed and the last uniform order statistic generated, from
// which the beta-spacing recurrence advances.
type failState struct {
	cells uint16  // cells failed so far
	u     float64 // U_(cells+1), the order statistic behind nextFail
}

// Device is a simulated PCM chip. It is not safe for concurrent use; the
// simulator is single-threaded per device, which mirrors a single memory
// controller and keeps the hot path allocation- and lock-free.
type Device struct {
	cfg Config // ckpt:skip construction-time config, fingerprinted by the engine

	wear     []uint64 // writes serviced per block
	nextFail []uint64 // wear threshold of the next cell failure (exact when the block's exact bit is set, else a lower bound)

	exactBits bitset.Bits // blocks whose nextFail is exact; set iff the block has a fails entry
	deadBits  bitset.Bits // blocks declared uncorrectable by the ECC layer via MarkDead

	// fails holds the schedule position for blocks whose thresholds have
	// been materialized — typically a tiny fraction of the device.
	fails map[uint64]failState

	lifeLB []uint64 // ckpt:derived shared lower-bound table, rebuilt from cfg by NewDevice

	content []uint64 // logical tag per block when TrackContent

	stats     AccessStats
	deadCount uint64
	sigma     float64 // ckpt:derived recomputed from cfg.Lifetime in NewDevice

	// Failure-horizon fast path: horizon counts device writes guaranteed
	// not to trigger a cell failure anywhere. A cell fails on the write
	// that brings its block's wear up to nextFail, and each write lowers
	// exactly one block's margin by one, so after a rescan finding minimum
	// margin M the next M-1 writes are failure-free; while horizon > 0 the
	// write path skips all failure bookkeeping. Unmaterialized blocks
	// contribute their lower-bound margin, which only shortens the
	// horizon — never past a real failure. When the rescan itself finds
	// a margin of 1 (a failure is imminent), rescanIn defers the next
	// rescan by NumBlocks checked writes. Any other small margin re-arms
	// a short horizon, so a degraded chip rescans every few writes; the
	// rescan is therefore incremental (see recomputeHorizon) and costs
	// O(chunks written since the last rescan), not O(NumBlocks).
	horizon  uint64
	rescanIn uint64

	// Incremental rescan state. Blocks are grouped into chunks of
	// 1<<chunkShift; every change to a block's wear or nextFail marks its
	// chunk dirty, and minTree is a tournament tree over the chunks'
	// minimum margins: leaves at [chunks, 2*chunks), node i the minimum of
	// nodes 2i and 2i+1, so minTree[1] is the chip-wide minimum once the
	// dirty leaves are refreshed.
	dirty   bitset.Bits // ckpt:derived chunks changed since the last rescan; LoadState marks every chunk dirty
	minTree []uint64    // ckpt:derived per-chunk minimum margins, recomputed from wear and nextFail for dirty chunks

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; CellFailed probe
}

// lbQuantBits quantizes the first-failure uniform variate for the shared
// lower-bound table: 2^16 entries, 512 KiB per distinct endurance model,
// cached process-wide (devices of every scale and shard share one table).
const lbQuantBits = 16

type lbKey struct {
	mean  float64
	sigma float64
	cells int
}

var (
	lbMu    sync.Mutex
	lbCache = map[lbKey][]uint64{}
)

// lifeLowerBounds returns the table mapping q = floor(v * 2^16) — v the
// block's first uniform variate — to a guaranteed lower bound on the
// block's first-failure threshold. Entry q is the exact threshold at the
// quantization cell's left edge minus a slack covering the cell width's
// effect plus floating-point non-monotonicity of Pow/Erfinv (both orders
// of magnitude below the 2^-20 relative slack) and the ceil rounding.
func lifeLowerBounds(mean, sigma float64, cells int) []uint64 {
	key := lbKey{mean: mean, sigma: sigma, cells: cells}
	lbMu.Lock()
	defer lbMu.Unlock()
	if t := lbCache[key]; t != nil {
		return t
	}
	t := make([]uint64, 1<<lbQuantBits)
	for q := range t {
		v := float64(q) / (1 << lbQuantBits)
		u := 1 - math.Pow(1-v, 1/float64(cells))
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		life := mean + sigma*math.Sqrt2*math.Erfinv(2*u-1)
		if life < 1 {
			life = 1
		}
		lb := uint64(math.Ceil(life))
		slack := 1 + lb>>20
		if lb <= slack {
			lb = 1
		} else {
			lb -= slack
		}
		t[q] = lb
	}
	lbCache[key] = t
	return t
}

// chunkShift sets the incremental rescan's granularity: 8 blocks per
// chunk, one dirty bit each. A rescan re-reads every dirty chunk whole,
// and a degraded chip re-arms after only a few writes, so most dirty
// chunks hold one written block: the smaller the chunk, the fewer
// untouched blocks a rescan re-reads (EXPERIMENTS.md § Incremental
// failure-horizon rescan). minTree costs 16 B per chunk, 2 B per block.
const chunkShift = 3

// NewDevice builds a chip from cfg.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:       cfg,
		wear:      make([]uint64, cfg.NumBlocks),
		nextFail:  make([]uint64, cfg.NumBlocks),
		exactBits: bitset.New(cfg.NumBlocks),
		deadBits:  bitset.New(cfg.NumBlocks),
		fails:     make(map[uint64]failState),
		sigma:     cfg.LifetimeCoV * cfg.MeanEndurance,
	}
	chunks := (cfg.NumBlocks + 1<<chunkShift - 1) >> chunkShift
	d.dirty = bitset.New(chunks)
	d.minTree = make([]uint64, 2*chunks)
	d.markAllDirty()
	d.lifeLB = lifeLowerBounds(cfg.MeanEndurance, d.sigma, cfg.CellsPerBlock)
	if cfg.TrackContent {
		d.content = make([]uint64, cfg.NumBlocks)
	}
	// Weak-tail blocks (lower bound under matFloor) get their exact first
	// threshold up front, so the few fragile blocks of a large chip cannot
	// pin the failure horizon near zero from the start; everything else
	// starts from the table.
	matFloor := uint64(math.Ceil(cfg.MeanEndurance / 16))
	for b := uint64(0); b < cfg.NumBlocks; b++ {
		v := d.cellU(BlockID(b), 0)
		q := int(v * (1 << lbQuantBits))
		if q >= 1<<lbQuantBits {
			q = 1<<lbQuantBits - 1
		}
		if lb := d.lifeLB[q]; lb > matFloor {
			d.nextFail[b] = lb
		} else {
			d.materialize(BlockID(b))
		}
	}
	d.recomputeHorizon()
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumBlocks returns the number of blocks.
func (d *Device) NumBlocks() uint64 { return d.cfg.NumBlocks }

// cellU derives the uniform variate used for the k-th order-statistic
// spacing of block b. It depends only on (seed, b, k), so failure
// schedules are independent of the order in which blocks are written —
// and of when the schedule is materialized. rng.HashFloat64Open produces
// exactly what a freshly seeded Source would, without allocating one per
// draw.
func (d *Device) cellU(b BlockID, k int) float64 {
	return rng.HashFloat64Open(d.cfg.Seed ^ (uint64(b)+1)*0x9E3779B97F4A7C15 ^ (uint64(k)+1)*0xC2B2AE3D27D4EB4F)
}

// threshold computes the wear threshold of the (k+1)-th cell failure of
// block b from prev = U_(k) (0 when k == 0), returning the threshold and
// the advanced order statistic U_(k+1). k is the number of cells already
// failed.
func (d *Device) threshold(b BlockID, k int, prev float64) (uint64, float64) {
	c := d.cfg.CellsPerBlock
	if k >= c {
		return math.MaxUint64, prev // all cells failed; no further events
	}
	// Remaining c-k uniforms are i.i.d. on (prev, 1); their minimum is
	// prev + (1-prev) * (1 - (1-V)^(1/(c-k))).
	v := d.cellU(b, k)
	u := prev + (1-prev)*(1-math.Pow(1-v, 1/float64(c-k)))
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	life := d.cfg.MeanEndurance + d.sigma*math.Sqrt2*math.Erfinv(2*u-1)
	if life < 1 {
		life = 1
	}
	return uint64(math.Ceil(life)), u
}

// materialize replaces block b's lower-bound threshold with the exact
// first-failure threshold (identical to what the eager computation would
// have produced) and records the schedule position. Only valid while the
// block has no materialized schedule. nextFail can only grow here, so an
// armed horizon stays a valid bound.
func (d *Device) materialize(b BlockID) {
	t, u := d.threshold(b, 0, 0)
	d.nextFail[b] = t
	d.fails[uint64(b)] = failState{u: u}
	d.exactBits.Set(uint64(b))
	d.dirty.Set(uint64(b) >> chunkShift)
}

// Write services one write to block b, wearing it. It returns the number
// of cells that newly failed during this write (usually zero). The caller
// (the ECC layer) decides whether the block is still correctable.
func (d *Device) Write(b BlockID) int {
	if d.horizon > 0 {
		d.horizon--
		d.stats.Writes++
		d.wear[b]++
		d.dirty.Set(uint64(b) >> chunkShift)
		return 0
	}
	return d.writeChecked(b)
}

// WriteNoFail attempts the failure-horizon fast write for a live block:
// when no cell anywhere can fail on this write and b is not dead, the
// write is performed and true returned. Otherwise nothing happens and the
// caller must take the full checked path (Write). This lets the backend
// skip its dead/ECC bookkeeping in one branch.
func (d *Device) WriteNoFail(b BlockID) bool {
	if d.horizon == 0 || d.deadBits.Test(uint64(b)) {
		return false
	}
	d.horizon--
	d.stats.Writes++
	d.wear[b]++
	d.dirty.Set(uint64(b) >> chunkShift)
	return true
}

// writeChecked is the full write path: advance wear, materialize any cell
// failures, and re-arm the horizon when due.
func (d *Device) writeChecked(b BlockID) int {
	d.stats.Writes++
	d.wear[b]++
	d.dirty.Set(uint64(b) >> chunkShift)
	newFailures := 0
	if d.wear[b] >= d.nextFail[b] {
		if !d.exactBits.Test(uint64(b)) {
			d.materialize(b)
		}
		for d.wear[b] >= d.nextFail[b] {
			fs := d.fails[uint64(b)]
			fs.cells++
			newFailures++
			t, u := d.threshold(b, int(fs.cells), fs.u)
			fs.u = u
			d.fails[uint64(b)] = fs
			d.nextFail[b] = t
			if d.observer != nil {
				d.observer.Event(obs.Event{Kind: obs.CellFailed, A: uint64(b), B: uint64(fs.cells)})
			}
		}
	}
	if d.rescanIn > 0 {
		d.rescanIn--
	} else {
		d.recomputeHorizon()
	}
	return newFailures
}

// recomputeHorizon re-arms the fast-path countdown from the chip-wide
// minimum failure margin. Runs at construction, on horizon expiry, and at
// most once per NumBlocks checked writes. Only the chunks dirtied since
// the previous rescan are re-read; the rest keep their minima in minTree,
// so the result is exactly that of a full scan over every block.
func (d *Device) recomputeHorizon() {
	for i, w := range d.dirty {
		for w != 0 {
			d.refreshChunk(uint64(i)<<6 | uint64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
		d.dirty[i] = 0
	}
	// The write reaching nextFail fails, so minimum margin M leaves M-1
	// failure-free writes. writeChecked keeps nextFail > wear, so M >= 1.
	d.horizon = d.minTree[1] - 1
	if d.horizon == 0 {
		d.rescanIn = uint64(len(d.wear))
	}
}

// refreshChunk recomputes chunk c's minimum margin and propagates it up
// minTree, stopping at the first ancestor whose minimum is unchanged.
func (d *Device) refreshChunk(c uint64) {
	lo := c << chunkShift
	hi := min(lo+1<<chunkShift, uint64(len(d.wear)))
	wear, next := d.wear[lo:hi], d.nextFail[lo:hi]
	m := uint64(math.MaxUint64)
	for j, w := range wear {
		m = min(m, next[j]-w)
	}
	i := uint64(len(d.minTree))/2 + c
	d.minTree[i] = m
	for i > 1 {
		i >>= 1
		m = min(d.minTree[2*i], d.minTree[2*i+1])
		if d.minTree[i] == m {
			return
		}
		d.minTree[i] = m
	}
}

// markAllDirty schedules every chunk for refresh at the next rescan, after
// wear and nextFail were overwritten wholesale.
func (d *Device) markAllDirty() {
	for c := uint64(0); c < uint64(len(d.minTree))/2; c++ {
		d.dirty.Set(c)
	}
}

// Read services one read from block b. Reads do not wear PCM cells.
func (d *Device) Read(b BlockID) {
	d.stats.Reads++
}

// Wear returns the write count of block b.
func (d *Device) Wear(b BlockID) uint64 { return d.wear[b] }

// WearCounts returns a copy of all per-block write counts, for CoV and
// leveling-quality analysis.
func (d *Device) WearCounts() []uint64 {
	out := make([]uint64, len(d.wear))
	copy(out, d.wear)
	return out
}

// WearCoV computes the coefficient of variation of per-block wear without
// copying the counts, for periodic snapshots.
func (d *Device) WearCoV() float64 {
	return stats.CoVOfCounts(d.wear)
}

// WearMoments returns the streaming moments of per-block wear. Shards of a
// partitioned chip merge these (stats.Welford.Merge) to report the whole
// chip's WearCoV without concatenating the per-shard counts.
func (d *Device) WearMoments() stats.Welford {
	return stats.WelfordOfCounts(d.wear)
}

// SetObserver attaches an event observer (nil detaches). Cell-failure
// events fire only on the checked write path; the failure-horizon fast
// path by construction services writes that cannot fail a cell.
func (d *Device) SetObserver(o obs.Observer) { d.observer = o }

// FailedCells returns the number of failed cells in block b.
func (d *Device) FailedCells(b BlockID) int { return int(d.fails[uint64(b)].cells) }

// MarkDead records that the ECC layer declared block b uncorrectable.
// Marking an already-dead block is a no-op.
func (d *Device) MarkDead(b BlockID) {
	if !d.deadBits.Test(uint64(b)) {
		d.deadBits.Set(uint64(b))
		d.deadCount++
	}
}

// Dead reports whether block b has been declared uncorrectable.
func (d *Device) Dead(b BlockID) bool { return d.deadBits.Test(uint64(b)) }

// DeadBlocks returns the number of blocks declared dead.
func (d *Device) DeadBlocks() uint64 { return d.deadCount }

// SurvivalRate returns the fraction of blocks not declared dead, the
// y-axis of the paper's Figure 6.
func (d *Device) SurvivalRate() float64 {
	return 1 - float64(d.deadCount)/float64(d.cfg.NumBlocks)
}

// Stats returns the cumulative raw access counters.
func (d *Device) Stats() AccessStats { return d.stats }

// SetContent stores a logical content tag for block b (TrackContent only).
func (d *Device) SetContent(b BlockID, tag uint64) {
	if d.content != nil {
		d.content[b] = tag
	}
}

// Content returns the logical content tag of block b (TrackContent only).
func (d *Device) Content(b BlockID) uint64 {
	if d.content == nil {
		return 0
	}
	return d.content[b]
}

// TracksContent reports whether the device records content tags.
func (d *Device) TracksContent() bool { return d.content != nil }

// PeekNextFailure returns the wear count at which block b's next cell
// failure will occur, materializing the exact threshold if the block only
// carries its lower bound. Exposed for tests and fast-forward heuristics;
// not for the hot path (materialization mutates checkpointed state).
func (d *Device) PeekNextFailure(b BlockID) uint64 {
	if !d.exactBits.Test(uint64(b)) {
		d.materialize(b)
	}
	return d.nextFail[b]
}
