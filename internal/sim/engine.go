// Package sim wires the full simulated system — workload, OS model,
// wear-leveling scheme, failure-protection framework, error correction
// and PCM device — and drives it write by write, mirroring the paper's
// trace-driven methodology (§IV-A). Package-level experiment presets
// (experiments.go) regenerate every table and figure of the evaluation.
package sim

import (
	"context"
	"errors"
	"fmt"

	"wlreviver/internal/cache"
	"wlreviver/internal/mc"
	"wlreviver/internal/obs"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/reviver"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

// Config assembles one simulated system.
type Config struct {
	// Blocks is the software-visible capacity in blocks (the paper's
	// 1 GB chip is 2^24 blocks of 64 B; defaults here are scaled).
	Blocks uint64
	// BlocksPerPage is the OS page size in blocks (paper: 64). It must
	// be a power of two dividing Blocks.
	BlocksPerPage uint64
	// CellsPerBlock is the ECC-group size in cells (paper: 512).
	CellsPerBlock int
	// MeanEndurance and LifetimeCoV parameterise cell lifetimes
	// (paper: 1e8 and 0.2; scaled by default).
	MeanEndurance float64
	LifetimeCoV   float64
	// Seed drives all stochastic components.
	Seed uint64

	// Leveler selects the wear-leveling scheme; GapWritePeriod is ψ
	// (paper: 100). SRInnerRegions enables two-level Security Refresh.
	Leveler        LevelerKind
	GapWritePeriod uint64
	SRInnerRegions uint64
	// SGRegions is the region count for LevelerRegionedStartGap
	// (default 4).
	SGRegions uint64
	// WFRRegions is the decoder region count for LevelerWoLFRaM
	// (default 4); GapWritePeriod paces its remaps.
	WFRRegions uint64
	// SWEpochWrites is LevelerSoftWear's leveling epoch in writes
	// (default BlocksPerPage*GapWritePeriod); pages are BlocksPerPage
	// blocks.
	SWEpochWrites uint64
	// CustomLeveler, when non-nil, overrides Leveler with a user-supplied
	// scheme — the framework revives any wear.Leveler (see
	// examples/customleveler). Its PA space must equal Blocks.
	CustomLeveler wear.Leveler

	// Protector selects the failure-protection framework.
	Protector ProtectorKind
	// FreepReserveFraction is FREE-p's pre-reserved share (0–0.15).
	FreepReserveFraction float64
	// LLSChunkPages and LLSSalvageGroups parameterise LLS; the backup
	// region is sized at LLSBackupFraction of capacity (default 0.5).
	LLSChunkPages     uint64
	LLSSalvageGroups  uint64
	LLSBackupFraction float64

	// ECC selects the error-correction scheme.
	ECC ECCKind
	// CacheKB configures the remap cache (Table II uses 32); 0 disables.
	CacheKB int
	// TrackContent enables data-integrity tags (tests; slows the run).
	TrackContent bool
	// DisableChainReduction is the reviver chain-switching ablation knob.
	DisableChainReduction bool
	// ImmediateAcquisition is the reviver acquisition-policy ablation
	// knob (§III-A option 1 instead of the paper's option 2).
	ImmediateAcquisition bool
	// RevPointerBytes overrides the reviver's stored PA pointer size
	// (default 4), which sets the inverse-pointer section split.
	RevPointerBytes int

	// Observer, when non-nil, receives typed lifecycle events from every
	// layer plus periodic Snapshot samples. Observation is passive: the
	// simulated outcome is byte-identical with and without it, and the
	// write hot path pays nothing when it is nil.
	Observer obs.Observer
	// SnapshotEvery is the snapshot period in simulated writes — the
	// simulator's only clock, so snapshot timing is deterministic and
	// independent of wall-clock or worker count. 0 defaults to Blocks
	// (one snapshot per writes-per-block unit) when an Observer is set.
	SnapshotEvery uint64
}

// DefaultConfig returns the scaled default geometry: 2^16 blocks (4 MiB),
// 4 KB pages, endurance 10^4, ψ=100, Start-Gap + WL-Reviver + ECP6.
func DefaultConfig() Config {
	return Config{
		Blocks:           1 << 16,
		BlocksPerPage:    64,
		CellsPerBlock:    512,
		MeanEndurance:    1e4,
		LifetimeCoV:      0.2,
		Seed:             1,
		Leveler:          LevelerStartGap,
		GapWritePeriod:   100,
		Protector:        ProtectorWLReviver,
		ECC:              ECCECP6,
		LLSChunkPages:    16,
		LLSSalvageGroups: 8,
	}
}

// Engine drives one configured system.
type Engine struct {
	cfg  Config
	dev  *pcm.Device
	be   *mc.Backend
	lv   wear.Leveler
	os   *osmodel.Model
	prot mc.Protector
	gen  trace.Generator

	// lvOps counts the leveler's cumulative remapping operations (gap
	// moves, outer-round swaps, decoder swaps or page relocations); nil
	// for the static and custom levelers, which report 0.
	lvOps func() uint64

	// Optional protector views and per-write constants, resolved once at
	// construction so the write loop carries no type assertions or
	// recomputed bounds.
	crip     mc.Crippler      // nil when prot cannot cripple
	space    mc.SpaceReporter // nil when prot reports no space metric
	llsStack bool             // crippling is terminal (Figure 8 semantics)
	maxRetry int

	// Devirtualized views of prot and lv, resolved once at construction.
	// rev is non-nil when the protector is WL-Reviver: Write and
	// ResumePending become direct calls. Every other protector's
	// ResumePending is a constant 0 (nothing to resume), so the call is
	// elided entirely. sg is non-nil when the leveler is Start-Gap, the
	// only leveler whose NoteWrite inlines; every other leveler's
	// NoteWrite goes through the interface.
	rev *reviver.Reviver
	sg  *wear.StartGap

	// Batched address generation: when gen has a NextBatch fast path,
	// addresses are pulled through addrBuf in chunks, replacing one
	// interface call per write with one per addrBatch writes. Step and
	// RunContext share the buffer, so mixing them preserves the address
	// stream.
	batchGen trace.BatchGenerator
	addrBuf  []uint64
	addrPos  int

	writes  uint64
	stopped bool

	// Observation state: snapEvery is 0 when no observer is attached, so
	// the hot path's snapshot check is a single always-false compare.
	observer   obs.Observer
	remapCache *cache.Cache
	snapEvery  uint64
	nextSnap   uint64
}

// addrBatch is the address-prefetch chunk size: large enough to amortize
// the generator dispatch, small enough to stay in L1.
const addrBatch = 512

// NewEngine builds the system and attaches the workload generator, whose
// block space must match cfg.Blocks. Every construction error wraps
// ErrBadConfig: nothing but the configuration can make it fail.
func NewEngine(cfg Config, gen trace.Generator) (*Engine, error) {
	e, err := newEngine(cfg, gen)
	if err != nil && !errors.Is(err, ErrBadConfig) {
		err = fmt.Errorf("%w: %w", err, ErrBadConfig)
	}
	return e, err
}

func newEngine(cfg Config, gen trace.Generator) (*Engine, error) {
	if cfg.Blocks == 0 || cfg.BlocksPerPage == 0 {
		return nil, fmt.Errorf("sim: Blocks and BlocksPerPage must be positive: %w", ErrBadConfig)
	}
	if gen.NumBlocks() != cfg.Blocks {
		return nil, fmt.Errorf("sim: workload covers %d blocks, system has %d: %w",
			gen.NumBlocks(), cfg.Blocks, ErrBadConfig)
	}

	var remapCache *cache.Cache
	if cfg.CacheKB > 0 {
		cc, err := cache.SizedConfig(cfg.CacheKB*1024, 8, 8)
		if err != nil {
			return nil, err
		}
		remapCache, err = cache.New(cc)
		if err != nil {
			return nil, err
		}
	}

	// Wear-leveling scheme: the kind's row, unless a custom scheme
	// overrides it.
	lv := cfg.CustomLeveler
	var lvOps func() uint64
	if lv != nil {
		if lv.NumPAs() != cfg.Blocks {
			return nil, fmt.Errorf("sim: custom leveler covers %d PAs, system has %d blocks: %w",
				lv.NumPAs(), cfg.Blocks, ErrBadConfig)
		}
	} else {
		row, err := rowFor(levelerRows[:], int(cfg.Leveler), "leveler")
		if err != nil {
			return nil, err
		}
		if lv, lvOps, err = row.new(cfg); err != nil {
			return nil, err
		}
	}

	// Extra device blocks beyond the leveler's DA space. An unknown
	// protector adds none and fails once the layers beneath it are built.
	protRow, protErr := rowFor(protectorRows[:], int(cfg.Protector), "protector")
	extra := uint64(0)
	if protRow.extra != nil {
		extra = protRow.extra(cfg)
	}

	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks:     lv.NumDAs() + extra,
		BlockBytes:    64,
		CellsPerBlock: cfg.CellsPerBlock,
		MeanEndurance: cfg.MeanEndurance,
		LifetimeCoV:   cfg.LifetimeCoV,
		Seed:          cfg.Seed,
		TrackContent:  cfg.TrackContent,
	})
	if err != nil {
		return nil, err
	}

	eccRow, err := rowFor(eccRows[:], int(cfg.ECC), "ECC")
	if err != nil {
		return nil, err
	}
	scheme, err := eccRow.new(dev.NumBlocks())
	if err != nil {
		return nil, err
	}
	be := &mc.Backend{Dev: dev, ECC: scheme}

	osm, err := osmodel.New(cfg.Blocks, cfg.BlocksPerPage)
	if err != nil {
		return nil, err
	}

	if protErr != nil {
		return nil, protErr
	}
	prot, err := protRow.new(cfg, lv, be, osm, remapCache)
	if err != nil {
		return nil, err
	}

	e := &Engine{cfg: cfg, dev: dev, be: be, lv: lv, lvOps: lvOps, os: osm, prot: prot, gen: gen}
	e.crip, _ = prot.(mc.Crippler)
	e.space, _ = prot.(mc.SpaceReporter)
	e.llsStack = cfg.Protector == ProtectorLLS
	e.maxRetry = int(osm.NumPages()) + 2
	e.rev, _ = prot.(*reviver.Reviver)
	e.sg, _ = lv.(*wear.StartGap)
	if bg, ok := gen.(trace.BatchGenerator); ok {
		e.batchGen = bg
		e.addrBuf = make([]uint64, 0, addrBatch)
	}
	e.remapCache = remapCache
	if cfg.Observer != nil {
		e.attachObserver(cfg.Observer, cfg.SnapshotEvery)
	}
	return e, nil
}

// observable is the optional probe-attachment interface wear levelers
// (and custom levelers that want events) implement.
type observable interface {
	SetObserver(obs.Observer)
}

// attachObserver wires o into every instrumented layer and arms the
// snapshot pacing. every is the snapshot period in simulated writes
// (0: one snapshot per Blocks writes).
func (e *Engine) attachObserver(o obs.Observer, every uint64) {
	e.observer = o
	e.dev.SetObserver(o)
	e.be.Observer = o
	e.os.SetObserver(o)
	if e.remapCache != nil {
		e.remapCache.SetObserver(o)
	}
	if lo, ok := e.lv.(observable); ok {
		lo.SetObserver(o)
	}
	if every == 0 {
		every = e.cfg.Blocks
	}
	e.snapEvery = every
	e.nextSnap = every
}

// Metrics returns the attached observer as the standard *obs.Metrics
// accumulator, when the configuration used one.
func (e *Engine) Metrics() (*obs.Metrics, bool) {
	m, ok := e.observer.(*obs.Metrics)
	return m, ok
}

// emitSnapshot samples every layer into one obs.Snapshot. Runs off the
// hot path (at most once per snapEvery writes).
func (e *Engine) emitSnapshot() {
	s := obs.Snapshot{
		Writes:         e.writes,
		WritesPerBlock: e.WritesPerBlock(),
		SurvivalRate:   e.dev.SurvivalRate(),
		UsableFraction: e.UsableFraction(),
		AccessRatio:    e.AccessRatio(),
		WearCoV:        e.dev.WearCoV(),
	}
	e.addCounts(&s)
	e.observer.Snapshot(s)
}

// addCounts adds the engine's event counters to s: dead blocks, retired
// pages, WL-Reviver's live remaps and spares, leveler operations and
// remap-cache hits and misses. A sharded chip sums them over its shards.
func (e *Engine) addCounts(s *obs.Snapshot) {
	s.DeadBlocks += e.dev.DeadBlocks()
	s.RetiredPages += e.os.RetiredPages()
	if e.rev != nil {
		s.LiveRemaps += e.rev.LinkedFailures()
		s.SparePAs += e.rev.AvailableSpares()
	}
	if e.lvOps != nil {
		s.LevelerOps += e.lvOps()
	}
	if e.remapCache != nil {
		s.CacheHits += e.remapCache.Hits()
		s.CacheMisses += e.remapCache.Misses()
	}
}

// nextAddr returns the next workload address, refilling the prefetch
// buffer from the generator's batch fast path when one exists.
func (e *Engine) nextAddr() uint64 {
	if e.batchGen == nil {
		return e.gen.Next()
	}
	if e.addrPos == len(e.addrBuf) {
		e.addrBuf = e.addrBuf[:addrBatch]
		e.batchGen.NextBatch(e.addrBuf)
		e.addrPos = 0
	}
	a := e.addrBuf[e.addrPos]
	e.addrPos++
	return a
}

// Step services one software write from the workload. It returns false
// when the memory can no longer accept writes (no usable pages, or the
// protector is terminally out of capacity).
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	return e.writeTagged(e.nextAddr(), e.writes)
}

// runCtxBatch is RunContext's cancellation-check granularity in writes:
// large enough that the per-batch ctx.Err() call vanishes against the
// work, small enough that cancellation lands promptly at serving scale.
const runCtxBatch = 1 << 15

// RunContext services up to n writes and returns the number serviced.
// It is the one loop that batches a chip's write stream: RunN, the
// experiment runners (through the checkpoint driver, whose sweep-wide
// budget is the only crash injector) and wlserved's device actors all
// run through it.
//
// Cancellation is observed at batch boundaries only (every runCtxBatch
// writes), never mid-batch, so the simulated outcome stays a pure
// function of the configuration and the write count actually serviced:
// a cancelled run is byte-identical to an uninterrupted run truncated
// at the same count. The hot loop itself carries no clock and no
// per-write context check. On cancellation the count serviced so far is
// returned alongside ctx.Err(); the engine remains valid and can
// continue with a later call.
func (e *Engine) RunContext(ctx context.Context, n uint64) (uint64, error) {
	var done uint64
	for done < n {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		batch := min(n-done, runCtxBatch)
		got := e.runBatch(batch)
		done += got
		if got < batch {
			break // end of life (or terminal crippling) inside the batch
		}
	}
	return done, nil
}

// runBatch is the single tight write loop, so the stopped-recheck
// semantics live in exactly one place: stopped is rechecked every
// iteration, not just at entry, because writeTagged can set it while
// still reporting the write as serviced (the LLS crippling write is
// terminal), and the batch must halt there exactly as a Step-driven
// loop would.
func (e *Engine) runBatch(n uint64) uint64 {
	var done uint64
	for done < n && !e.stopped && e.writeTagged(e.nextAddr(), e.writes) {
		done++
	}
	return done
}

// RunN services up to n writes — RunContext without cancellation, the
// loop experiment runners sit in. It returns the writes serviced.
func (e *Engine) RunN(n uint64) uint64 {
	done, _ := e.RunContext(context.Background(), n)
	return done
}

// Writes returns the number of software writes serviced.
func (e *Engine) Writes() uint64 { return e.writes }

// WritesPerBlock returns writes normalised by capacity — the scale-free
// x-axis used in EXPERIMENTS.md.
func (e *Engine) WritesPerBlock() float64 {
	return float64(e.writes) / float64(e.cfg.Blocks)
}

// SurvivalRate returns the fraction of device blocks not declared dead
// (Figure 6's y-axis).
func (e *Engine) SurvivalRate() float64 { return e.dev.SurvivalRate() }

// UsableFraction returns the protector's software-usable capacity
// fraction (Figures 7–8, Table II).
func (e *Engine) UsableFraction() float64 {
	if e.space != nil {
		return e.space.SoftwareUsableFraction()
	}
	return e.os.UsableFraction()
}

// DeadFraction returns the fraction of device blocks declared dead
// (Table II's failure-ratio ladder).
func (e *Engine) DeadFraction() float64 {
	return float64(e.dev.DeadBlocks()) / float64(e.dev.NumBlocks())
}

// RequestCounts returns the protector's cumulative (software requests,
// raw PCM accesses).
func (e *Engine) RequestCounts() (requests, accesses uint64) {
	return e.prot.RequestCounts()
}

// Crippled reports whether wear leveling has ceased to function.
func (e *Engine) Crippled() bool {
	return e.crip != nil && e.crip.Crippled()
}

// Stopped reports whether the memory reached end of life.
func (e *Engine) Stopped() bool { return e.stopped }

// Device exposes the device for metric collection.
func (e *Engine) Device() *pcm.Device { return e.dev }

// OS exposes the OS model.
func (e *Engine) OS() *osmodel.Model { return e.os }

// Protector exposes the protection framework.
func (e *Engine) Protector() mc.Protector { return e.prot }

// Leveler exposes the wear-leveling scheme.
func (e *Engine) Leveler() wear.Leveler { return e.lv }

// Reviver returns the WL-Reviver instance, if configured.
func (e *Engine) Reviver() (*reviver.Reviver, bool) {
	r, ok := e.prot.(*reviver.Reviver)
	return r, ok
}

// AccessRatio returns raw PCM accesses per software request (Table II's
// access-time metric), or 0 before the first request.
func (e *Engine) AccessRatio() float64 {
	req, acc := e.prot.RequestCounts()
	if req == 0 {
		return 0
	}
	return float64(acc) / float64(req)
}

// Read services one software read of a virtual block, returning the
// logical content tag (meaningful when TrackContent is on) and whether
// the address was readable. Reads do not pace wear leveling (the
// schemes schedule on writes) but do traverse the same failure
// redirection, so they contribute to the access-ratio metrics.
func (e *Engine) Read(vblock uint64) (uint64, bool) {
	pa, ok := e.os.Translate(vblock)
	if !ok {
		return 0, false
	}
	tag, _ := e.prot.Read(pa)
	return tag, true
}

// WriteTagged services one software write of an explicit content tag to
// a virtual block: translate, write through the protector, retry at the
// fresh translation after a reported failure, resume suspended
// wear-leveling work, then pace the leveler (unless crippled — for LLS,
// running out of reservable capacity is terminal, ending the Figure 8
// comparison). It returns false when the memory can no longer accept
// writes.
func (e *Engine) WriteTagged(vblock, tag uint64) bool {
	if e.stopped {
		return false
	}
	return e.writeTagged(vblock, tag)
}

// writeTagged is the write path with the stopped check hoisted into the
// callers' loops. WL-Reviver and Start-Gap are called through the
// concrete views resolved at construction; other layers go through their
// interfaces.
func (e *Engine) writeTagged(vblock, tag uint64) bool {
	var pa uint64
	for attempt := 0; ; attempt++ {
		if attempt > e.maxRetry {
			e.stopped = true
			return false
		}
		var ok bool
		pa, ok = e.os.Translate(vblock)
		if !ok {
			e.stopped = true
			return false
		}
		var retry bool
		if e.rev != nil {
			retry = e.rev.Write(pa, tag).Retry
		} else {
			retry = e.prot.Write(pa, tag).Retry
		}
		if !retry {
			break
		}
	}
	e.writes++
	if e.rev != nil {
		// Only WL-Reviver can suspend work; the other protectors'
		// ResumePending is a constant 0 and is skipped entirely.
		e.rev.ResumePending()
	}
	if e.crip == nil || !e.crip.Crippled() {
		if e.sg != nil {
			e.sg.NoteWrite(pa, e.prot)
		} else {
			e.lv.NoteWrite(pa, e.prot)
		}
	} else if e.llsStack {
		e.stopped = true
	}
	if e.snapEvery != 0 && e.writes >= e.nextSnap {
		// Snapshots fire at exact simulated-write thresholds, so an
		// observed run across any batching or worker count sees the same
		// series.
		e.emitSnapshot()
		e.nextSnap += e.snapEvery
	}
	return true
}
