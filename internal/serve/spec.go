package serve

import (
	"errors"
	"fmt"

	"wlreviver/internal/obs"
	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// DeviceSpec is a device's declarative, JSON-portable description — the
// request body a tenant posts to create a device, and the exact record
// the fleet persists as spec.json so an evicted or restarted device
// rebuilds the identical engine. Every field defaults from
// sim.DefaultConfig (zero values mean "default"), so the spec → Config
// mapping is a pure function and the configuration fingerprint inside
// checkpoint images always matches across rebuilds.
type DeviceSpec struct {
	// Stack names a registered device stack ("fig6/ECP6-SG-WLR", ...;
	// see sim.DeviceStackNames) supplying the ECC/leveler/protector
	// selection. The explicit selector fields below, when non-empty,
	// override the stack's choices.
	Stack string `json:"stack,omitempty"`

	// Geometry and media. Zero values take the sim.DefaultConfig
	// scaled-paper values. BlocksPerPage must be a power of two that
	// divides Blocks; any other page size is a bad config (HTTP 400), as
	// is a Blocks above 2^24, the paper's 1 GB chip (see admissible for
	// the knobs bounded by the chip).
	Blocks        uint64  `json:"blocks,omitempty"`
	BlocksPerPage uint64  `json:"blocks_per_page,omitempty"`
	CellsPerBlock int     `json:"cells_per_block,omitempty"`
	MeanEndurance float64 `json:"mean_endurance,omitempty"`
	LifetimeCoV   float64 `json:"lifetime_cov,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`

	// Component selectors by display name: Leveler "SG"/"SR"/"SG-R"/
	// "WFR"/"SW"/"none", Protector "WLR"/"FREE-p"/"LLS"/"none", ECC
	// "ECP6"/"ECP1"/"PAYG". Empty selects the defaults (SG, WLR, ECP6)
	// or the Stack's choices when Stack is set.
	Leveler   string `json:"leveler,omitempty"`
	Protector string `json:"protector,omitempty"`
	ECC       string `json:"ecc,omitempty"`

	// Scheme knobs, zero-defaulted as in sim.Config.
	GapWritePeriod       uint64  `json:"gap_write_period,omitempty"`
	SRInnerRegions       uint64  `json:"sr_inner_regions,omitempty"`
	SGRegions            uint64  `json:"sg_regions,omitempty"`
	FreepReserveFraction float64 `json:"freep_reserve_fraction,omitempty"`
	LLSChunkPages        uint64  `json:"lls_chunk_pages,omitempty"`
	LLSSalvageGroups     uint64  `json:"lls_salvage_groups,omitempty"`
	LLSBackupFraction    float64 `json:"lls_backup_fraction,omitempty"`
	CacheKB              int     `json:"cache_kb,omitempty"`

	// SnapshotEvery is the metrics snapshot period in simulated writes
	// (0 defaults to Blocks).
	SnapshotEvery uint64 `json:"snapshot_every,omitempty"`

	// Workload drives the device's count-granularity write traffic.
	// Kind "" defaults to uniform; Blocks 0 defaults to the device's
	// Blocks; Seed 0 defaults to the device Seed.
	Workload trace.Spec `json:"workload,omitzero"`
}

// config resolves the spec into a sim.Config (without Observer). The
// mapping is deterministic: the same spec always yields the same
// Config, which the checkpoint configuration fingerprint depends on.
func (s DeviceSpec) config() (sim.Config, error) {
	cfg := sim.DefaultConfig()
	if s.Stack != "" {
		st, err := sim.LookupDeviceStack(s.Stack)
		if err != nil {
			return sim.Config{}, err
		}
		cfg = st.Apply(cfg)
	}
	// Each explicit selector overrides the default or the stack's pick.
	var err error
	if s.Leveler != "" {
		if cfg.Leveler, err = sim.ParseLevelerKind(s.Leveler); err != nil {
			return sim.Config{}, err
		}
	}
	if s.Protector != "" {
		if cfg.Protector, err = sim.ParseProtectorKind(s.Protector); err != nil {
			return sim.Config{}, err
		}
	}
	if s.ECC != "" {
		if cfg.ECC, err = sim.ParseECCKind(s.ECC); err != nil {
			return sim.Config{}, err
		}
	}
	setNZ := func(dst *uint64, v uint64) {
		if v != 0 {
			*dst = v
		}
	}
	setNZ(&cfg.Blocks, s.Blocks)
	setNZ(&cfg.BlocksPerPage, s.BlocksPerPage)
	setNZ(&cfg.Seed, s.Seed)
	setNZ(&cfg.GapWritePeriod, s.GapWritePeriod)
	setNZ(&cfg.SRInnerRegions, s.SRInnerRegions)
	setNZ(&cfg.SGRegions, s.SGRegions)
	setNZ(&cfg.LLSChunkPages, s.LLSChunkPages)
	setNZ(&cfg.LLSSalvageGroups, s.LLSSalvageGroups)
	setNZ(&cfg.SnapshotEvery, s.SnapshotEvery)
	if s.CellsPerBlock != 0 {
		cfg.CellsPerBlock = s.CellsPerBlock
	}
	if s.MeanEndurance != 0 {
		cfg.MeanEndurance = s.MeanEndurance
	}
	if s.LifetimeCoV != 0 {
		cfg.LifetimeCoV = s.LifetimeCoV
	}
	if s.FreepReserveFraction != 0 {
		cfg.FreepReserveFraction = s.FreepReserveFraction
	}
	if s.LLSBackupFraction != 0 {
		cfg.LLSBackupFraction = s.LLSBackupFraction
	}
	if s.CacheKB != 0 {
		cfg.CacheKB = s.CacheKB
	}
	if err := admissible(cfg, s.Workload); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// maxBlocks is the largest chip a tenant may declare: the paper's 1 GB
// chip of 2^24 64-byte blocks (§IV-A).
const maxBlocks = 1 << 24

// maxCacheKB caps the remap cache at one 8-byte entry per block of the
// largest chip; a bigger cache could never fill.
const maxCacheKB = maxBlocks * 8 / 1024

// admissible rejects geometry no admissible chip can use, before the
// engine sizes anything from it. With Blocks bounded, each knob below is
// bounded by the tenant's own chip, so every per-block, per-region and
// per-group allocation the engine makes is too: regions and salvaging
// groups hold at least one block, an LLS chunk fits the chip, and the
// FREE-p and LLS spare regions are at most the data region again.
func admissible(cfg sim.Config, w trace.Spec) error {
	var why string
	switch {
	case cfg.Blocks > maxBlocks:
		why = fmt.Sprintf("blocks %d exceed the %d-block paper chip", cfg.Blocks, maxBlocks)
	case cfg.CacheKB > maxCacheKB:
		why = fmt.Sprintf("cache_kb %d exceeds %d, one entry per block of the paper chip", cfg.CacheKB, maxCacheKB)
	case cfg.SRInnerRegions > cfg.Blocks:
		why = fmt.Sprintf("sr_inner_regions %d exceed the chip's %d blocks", cfg.SRInnerRegions, cfg.Blocks)
	case cfg.SGRegions > cfg.Blocks:
		why = fmt.Sprintf("sg_regions %d exceed the chip's %d blocks", cfg.SGRegions, cfg.Blocks)
	case w.Blocks != 0 && w.Blocks != cfg.Blocks:
		why = fmt.Sprintf("workload covers %d blocks, the chip has %d", w.Blocks, cfg.Blocks)
	case cfg.Protector == sim.ProtectorLLS && cfg.LLSChunkPages > cfg.Blocks/cfg.BlocksPerPage:
		why = fmt.Sprintf("lls_chunk_pages %d exceed the chip's %d pages", cfg.LLSChunkPages, cfg.Blocks/cfg.BlocksPerPage)
	case cfg.Protector == sim.ProtectorLLS && cfg.LLSSalvageGroups > cfg.Blocks:
		why = fmt.Sprintf("lls_salvage_groups %d exceed the chip's %d blocks", cfg.LLSSalvageGroups, cfg.Blocks)
	case cfg.Protector == sim.ProtectorLLS && (cfg.LLSBackupFraction < 0 || cfg.LLSBackupFraction > 1):
		why = fmt.Sprintf("lls_backup_fraction %v outside [0, 1]", cfg.LLSBackupFraction)
	case cfg.Protector == sim.ProtectorFREEp && (cfg.FreepReserveFraction < 0 || cfg.FreepReserveFraction > 0.5):
		why = fmt.Sprintf("freep_reserve_fraction %v outside [0, 0.5]", cfg.FreepReserveFraction)
	default:
		return nil
	}
	return fmt.Errorf("serve: %s: %w", why, sim.ErrBadConfig)
}

// workload resolves the spec's workload declaration against the device
// geometry.
func (s DeviceSpec) workload(cfg sim.Config) trace.Spec {
	w := s.Workload
	if w.Kind == "" {
		w.Kind = trace.KindUniform
	}
	if w.Blocks == 0 {
		w.Blocks = cfg.Blocks
	}
	if w.PageBlocks == 0 {
		w.PageBlocks = cfg.BlocksPerPage
	}
	if w.Seed == 0 {
		w.Seed = cfg.Seed
	}
	return w
}

// buildEngine constructs the device's engine from its spec, with a
// fresh metrics observer attached. The result is a pure function of the
// spec: two calls yield engines whose checkpoint images agree byte for
// byte after the same write sequence.
func buildEngine(s DeviceSpec) (*sim.Engine, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewFromSpec(s.workload(cfg))
	if err != nil {
		if !errors.Is(err, trace.ErrUnknownWorkload) {
			// A workload the generator refuses is a bad spec too.
			err = fmt.Errorf("serve: %w: %w", err, sim.ErrBadConfig)
		}
		return nil, err
	}
	cfg.Observer = obs.NewMetrics()
	eng, err := sim.NewEngine(cfg, gen)
	if err != nil {
		return nil, fmt.Errorf("serve: building device engine: %w", err)
	}
	return eng, nil
}
