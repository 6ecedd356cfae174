// Package obs is the simulator's deterministic observability layer:
// engine lifecycle events, one Event type tagged with a Kind, and
// periodic metrics snapshots, paced exclusively in simulated writes —
// never wall-clock time — so an observed run is exactly as reproducible
// as an unobserved one.
//
// The layer is zero-cost when disabled: every probe site in the engine,
// the device, the memory controller, the remap cache, the levelers and
// the protection frameworks sits behind a nil-observer check, so the
// write hot path is untouched unless an Observer is attached. With an
// observer attached the event stream is a pure function of the
// configuration seed — the probes only read simulation state, never
// perturb it — which is what lets the experiment harness pin
// byte-identical output with and without observation.
package obs

// Snapshot is a periodic cross-layer state sample, emitted by the
// engine every SnapshotEvery simulated writes (the simulator's only
// clock). Cumulative fields count since the start of the run.
type Snapshot struct {
	// Writes is the number of software writes serviced so far.
	Writes uint64 `json:"writes"`
	// WritesPerBlock is Writes normalised by software capacity — the
	// scale-free x-axis used throughout EXPERIMENTS.md.
	WritesPerBlock float64 `json:"writes_per_block"`
	// SurvivalRate is the fraction of device blocks not declared dead.
	SurvivalRate float64 `json:"survival_rate"`
	// UsableFraction is the software-usable capacity fraction.
	UsableFraction float64 `json:"usable_fraction"`
	// DeadBlocks is the number of device blocks declared dead.
	DeadBlocks uint64 `json:"dead_blocks"`
	// RetiredPages is the number of OS pages retired.
	RetiredPages uint64 `json:"retired_pages"`
	// LiveRemaps is the number of failed blocks currently linked to
	// virtual shadows (WL-Reviver only; 0 otherwise).
	LiveRemaps int `json:"live_remaps"`
	// SparePAs is the number of unlinked reserved PAs (WL-Reviver only).
	SparePAs int `json:"spare_pas"`
	// LevelerOps counts the wear-leveling scheme's remapping operations:
	// Start-Gap gap movements, Security Refresh outer-region swaps,
	// WoLFRaM decoder remaps, or SoftWear page relocations.
	LevelerOps uint64 `json:"leveler_ops"`
	// CacheHits and CacheMisses are the remap cache's cumulative lookup
	// outcomes (0 when no cache is configured).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// AccessRatio is raw PCM accesses per software request so far (the
	// paper's Table II metric; 0 when the protector does not track it).
	AccessRatio float64 `json:"access_ratio"`
	// WearCoV is the coefficient of variation of per-block device wear —
	// the leveling-quality metric.
	WearCoV float64 `json:"wear_cov"`
}

// Kind names an engine lifecycle event. What an Event's A and B carry
// depends on the kind; each constant's comment says.
type Kind uint8

const (
	// BlockFailed: the ECC layer declared a device block uncorrectable.
	// A is the block's device address, B its write count at death.
	BlockFailed Kind = iota
	// CellFailed: a PCM cell wore out. A is the block's device address,
	// B the block's failed-cell total after this failure. Blocks absorb
	// many cell failures before BlockFailed (ECP6 corrects six per block).
	CellFailed
	// Revived: a failed block was linked to a virtual shadow PA, the
	// WL-Reviver framework's fundamental recovery step. A is the failed
	// block's device address, B the shadow PA.
	Revived
	// RemapCacheHit and RemapCacheMiss: one remap-cache lookup. A is the
	// key, a device address; B is unused.
	RemapCacheHit
	RemapCacheMiss
	// GapMoved: one Start-Gap gap movement. A is the gap's device address
	// after the move; under regioned Start-Gap the region follows from it.
	// B is unused.
	GapMoved
	// RegionSwapped: one Security Refresh swap of the blocks at device
	// addresses A and B.
	RegionSwapped
	// DecoderRemapped: one WoLFRaM programmable-decoder remap, which
	// swapped the blocks at device addresses A and B.
	DecoderRemapped
	// PageRelocated: one SoftWear page relocation. The page in device
	// frame A moved to frame B, and the page in B moved to A.
	PageRelocated
	// PageRetired: the OS retired page A after a reported access
	// failure. B is unused.
	PageRetired

	numKinds
)

// Event is one engine lifecycle event: its kind and two words whose
// meaning the kind documents.
type Event struct {
	Kind Kind
	A, B uint64
}

// Observer receives engine lifecycle events and periodic snapshots.
// Implementations are invoked synchronously from the simulation loop of
// a single engine and need not be safe for concurrent use; the
// experiment runner attaches a distinct observer to every engine it
// fans out. Observers must not mutate simulation state — the engine's
// output is pinned byte-identical with and without observation.
//
// Metrics is the ready-made accumulator; Recorder buffers events for
// later replay.
type Observer interface {
	// Event fires as each lifecycle event happens.
	Event(e Event)
	// Snapshot fires every SnapshotEvery simulated writes with a
	// cross-layer state sample.
	Snapshot(s Snapshot)
}
