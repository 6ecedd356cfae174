package sim

import (
	"fmt"
	"strings"

	"wlreviver/internal/cache"
	"wlreviver/internal/ecc"
	"wlreviver/internal/freep"
	"wlreviver/internal/lls"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/reviver"
	"wlreviver/internal/wear"
)

// LevelerKind selects the wear-leveling scheme.
type LevelerKind int

// Wear-leveling schemes.
const (
	// LevelerNone disables wear leveling (Figure 6's "ECP6"/"PAYG"
	// baselines).
	LevelerNone LevelerKind = iota
	// LevelerStartGap is Start-Gap with Feistel address randomization.
	LevelerStartGap
	// LevelerSecurityRefresh is single- or two-level Security Refresh.
	LevelerSecurityRefresh
	// LevelerRegionedStartGap is the original paper's multi-region
	// Start-Gap organisation (independent start/gap per region).
	LevelerRegionedStartGap
	// LevelerWoLFRaM is WoLFRaM-style programmable-address-decoder
	// remapping (arXiv:2010.02825).
	LevelerWoLFRaM
	// LevelerSoftWear is SoftWear-style software-only page-granularity
	// leveling through the OS page table (arXiv:2004.03244).
	LevelerSoftWear
)

// ProtectorKind selects the failure-protection framework.
type ProtectorKind int

// Failure-protection frameworks.
const (
	// ProtectorNone exposes the first failure to the leveler.
	ProtectorNone ProtectorKind = iota
	// ProtectorWLReviver is the paper's framework.
	ProtectorWLReviver
	// ProtectorFREEp is the adapted FREE-p baseline (§IV-C).
	ProtectorFREEp
	// ProtectorLLS is the LLS baseline (§IV-D).
	ProtectorLLS
)

// ECCKind selects the error-correction scheme.
type ECCKind int

// Error-correction schemes.
const (
	// ECCECP6 corrects up to 6 failed cells per 512-bit group.
	ECCECP6 ECCKind = iota
	// ECCECP1 corrects 1.
	ECCECP1
	// ECCPAYG is Pay-As-You-Go with the paper's default budget.
	ECCPAYG
)

// levelerRow declares one wear-leveling scheme. new builds it over
// cfg.Blocks PAs and returns its cumulative remapping-operation counter
// (the snapshot's LevelerOps), nil when it has none; on error neither
// is usable.
type levelerRow struct {
	name string
	new  func(cfg Config) (wear.Leveler, func() uint64, error)
}

// protectorRow declares one failure-protection framework. extra sizes
// the device region it adds past the leveler's DA space (nil: none);
// new wires it over the built layers.
type protectorRow struct {
	name  string
	extra func(cfg Config) uint64
	new   func(cfg Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error)
}

// eccRow declares one error-correction scheme over a device of
// numBlocks blocks.
type eccRow struct {
	name string
	new  func(numBlocks uint64) (ecc.Scheme, error)
}

// The kinds' rows, indexed by kind: String and the Parse functions read
// the names (the Parse errors list them in this order) and newEngine
// the constructors. A new scheme is one constant plus one row.
var (
	levelerRows = [...]levelerRow{
		LevelerNone: {"none", func(c Config) (wear.Leveler, func() uint64, error) {
			return wear.Static{Size: c.Blocks}, nil, nil
		}},
		LevelerStartGap: {"SG", func(c Config) (wear.Leveler, func() uint64, error) {
			sgCfg := wear.StartGapConfig{NumPAs: c.Blocks, GapWritePeriod: c.GapWritePeriod, Seed: c.Seed}
			if c.Protector == ProtectorLLS {
				// LLS substitutes its restricted randomizer.
				rnd, err := lls.NewRestrictedRandomizer(c.Blocks, c.Seed)
				if err != nil {
					return nil, nil, err
				}
				sgCfg.Randomizer = rnd
			}
			sg, err := wear.NewStartGap(sgCfg)
			return sg, sg.GapMoves, err
		}},
		LevelerSecurityRefresh: {"SR", func(c Config) (wear.Leveler, func() uint64, error) {
			sr, err := wear.NewSecurityRefresh(wear.SecurityRefreshConfig{
				NumPAs:           c.Blocks,
				InnerRegions:     c.SRInnerRegions,
				OuterWritePeriod: c.GapWritePeriod,
				InnerWritePeriod: c.GapWritePeriod,
				Seed:             c.Seed,
			})
			return sr, sr.OuterSwaps, err
		}},
		LevelerRegionedStartGap: {"SG-R", func(c Config) (wear.Leveler, func() uint64, error) {
			rsg, err := wear.NewRegionedStartGap(wear.RegionedStartGapConfig{
				NumPAs:         c.Blocks,
				Regions:        orDefault(c.SGRegions, 4),
				GapWritePeriod: c.GapWritePeriod,
				Seed:           c.Seed,
			})
			return rsg, rsg.GapMoves, err
		}},
		LevelerWoLFRaM: {"WFR", func(c Config) (wear.Leveler, func() uint64, error) {
			wfr, err := wear.NewWoLFRaM(wear.WoLFRaMConfig{
				NumPAs:          c.Blocks,
				Regions:         orDefault(c.WFRRegions, 4),
				SwapWritePeriod: c.GapWritePeriod,
				Seed:            c.Seed,
			})
			return wfr, wfr.Swaps, err
		}},
		LevelerSoftWear: {"SW", func(c Config) (wear.Leveler, func() uint64, error) {
			sw, err := wear.NewSoftWear(wear.SoftWearConfig{
				NumPAs:      c.Blocks,
				PageBlocks:  c.BlocksPerPage,
				EpochWrites: orDefault(c.SWEpochWrites, c.BlocksPerPage*c.GapWritePeriod),
			})
			return sw, sw.Relocations, err
		}},
	}

	protectorRows = [...]protectorRow{
		ProtectorNone: {name: "none", new: func(_ Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, _ *cache.Cache) (mc.Protector, error) {
			return mc.NewPassthrough(lv, be, osm), nil
		}},
		ProtectorWLReviver: {name: "WLR", new: func(c Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
			return reviver.New(reviver.Config{
				PointerBytes:          c.RevPointerBytes,
				RemapCache:            rc,
				DisableChainReduction: c.DisableChainReduction,
				ImmediateAcquisition:  c.ImmediateAcquisition,
				Observer:              c.Observer,
			}, lv, be, osm)
		}},
		ProtectorFREEp: {
			name:  "FREE-p",
			extra: func(c Config) uint64 { return freep.ReservedSlots(c.Blocks, c.FreepReserveFraction) },
			new: func(c Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
				return freep.New(freep.Config{ReserveFraction: c.FreepReserveFraction, RemapCache: rc}, lv, be, osm)
			},
		},
		ProtectorLLS: {
			name: "LLS",
			// The backup region: LLSBackupFraction of capacity (default
			// half), rounded up to whole chunks.
			extra: func(c Config) uint64 {
				chunkBlocks := c.LLSChunkPages * c.BlocksPerPage
				backup := uint64(float64(c.Blocks) * orDefault(c.LLSBackupFraction, 0.5))
				return (backup + chunkBlocks - 1) / chunkBlocks * chunkBlocks
			},
			new: func(c Config, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model, rc *cache.Cache) (mc.Protector, error) {
				return lls.New(lls.Config{
					ChunkPages:    c.LLSChunkPages,
					SalvageGroups: c.LLSSalvageGroups,
					RemapCache:    rc,
				}, lv, be, osm)
			},
		},
	}

	eccRows = [...]eccRow{
		ECCECP6: {"ECP6", func(n uint64) (ecc.Scheme, error) { return ecc.NewECP(6, n) }},
		ECCECP1: {"ECP1", func(n uint64) (ecc.Scheme, error) { return ecc.NewECP(1, n) }},
		ECCPAYG: {"PAYG", func(n uint64) (ecc.Scheme, error) { return ecc.NewPAYG(ecc.DefaultPAYGConfig(n), n) }},
	}
)

// orDefault returns v, or def when v is zero (an unset Config field).
func orDefault[T uint64 | float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// kindRow is what the name lookups read from a row.
type kindRow interface{ rowName() string }

func (r levelerRow) rowName() string   { return r.name }
func (r protectorRow) rowName() string { return r.name }
func (r eccRow) rowName() string       { return r.name }

// rowFor returns rows[k], or an ErrBadConfig error naming what for a
// kind outside the table.
func rowFor[R kindRow](rows []R, k int, what string) (R, error) {
	if k < 0 || k >= len(rows) {
		var none R
		return none, fmt.Errorf("sim: unknown %s %d: %w", what, k, ErrBadConfig)
	}
	return rows[k], nil
}

// kindName returns rows[k]'s name, or the zero kind's for a kind
// outside the table.
func kindName[R kindRow](rows []R, k int) string {
	if k < 0 || k >= len(rows) {
		k = 0
	}
	return rows[k].rowName()
}

// parseKind returns the index of the row named s; what names the kind
// in the error.
func parseKind[R kindRow](rows []R, s, what string) (int, error) {
	names := make([]string, len(rows))
	for i, r := range rows {
		if r.rowName() == s {
			return i, nil
		}
		names[i] = r.rowName()
	}
	return 0, fmt.Errorf("sim: unknown %s %q (known: %s): %w", what, s, strings.Join(names, ", "), ErrBadConfig)
}

// String returns the scheme's display name.
func (k LevelerKind) String() string { return kindName(levelerRows[:], int(k)) }

// String returns the framework's display name.
func (k ProtectorKind) String() string { return kindName(protectorRows[:], int(k)) }

// String returns the scheme's display name.
func (k ECCKind) String() string { return kindName(eccRows[:], int(k)) }

// ParseLevelerKind maps a scheme's display name (the String() form:
// "SG", "SR", "SG-R", "WFR", "SW", "none") back to its LevelerKind. The
// empty string selects the DefaultConfig scheme, Start-Gap.
func ParseLevelerKind(s string) (LevelerKind, error) {
	if s == "" {
		return LevelerStartGap, nil
	}
	k, err := parseKind(levelerRows[:], s, "leveler")
	return LevelerKind(k), err
}

// ParseProtectorKind maps a framework's display name ("WLR", "FREE-p",
// "LLS", "none") back to its ProtectorKind. The empty string selects
// the DefaultConfig framework, WL-Reviver.
func ParseProtectorKind(s string) (ProtectorKind, error) {
	if s == "" {
		return ProtectorWLReviver, nil
	}
	k, err := parseKind(protectorRows[:], s, "protector")
	return ProtectorKind(k), err
}

// ParseECCKind maps a scheme's display name ("ECP6", "ECP1", "PAYG")
// back to its ECCKind. The empty string selects ECP6.
func ParseECCKind(s string) (ECCKind, error) {
	if s == "" {
		return ECCECP6, nil
	}
	k, err := parseKind(eccRows[:], s, "ECC")
	return ECCKind(k), err
}
