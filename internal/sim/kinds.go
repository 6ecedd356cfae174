package sim

import (
	"fmt"
	"strings"
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

// Display names, indexed by kind; the Parse errors list them in this
// order.
var (
	levelerNames   = [...]string{"none", "SG", "SR", "SG-R", "WFR", "SW"}
	protectorNames = [...]string{"none", "WLR", "FREE-p", "LLS"}
	eccNames       = [...]string{"ECP6", "ECP1", "PAYG"}
)

// kindName returns names[k], or def for a value outside the table.
func kindName(names []string, k int, def string) string {
	if k < 0 || k >= len(names) {
		return def
	}
	return names[k]
}

// parseKind returns the index of s in names; what names the kind in the
// error.
func parseKind(names []string, s, what string) (int, error) {
	for i, n := range names {
		if n == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown %s %q (known: %s): %w", what, s, strings.Join(names, ", "), ErrBadConfig)
}

// String returns the scheme's display name.
func (k LevelerKind) String() string { return kindName(levelerNames[:], int(k), "none") }

// String returns the framework's display name.
func (k ProtectorKind) String() string { return kindName(protectorNames[:], int(k), "none") }

// String returns the scheme's display name.
func (k ECCKind) String() string { return kindName(eccNames[:], int(k), "ECP6") }

// ParseLevelerKind maps a scheme's display name (the String() form:
// "SG", "SR", "SG-R", "WFR", "SW", "none") back to its LevelerKind. The
// empty string selects the DefaultConfig scheme, Start-Gap.
func ParseLevelerKind(s string) (LevelerKind, error) {
	if s == "" {
		return LevelerStartGap, nil
	}
	k, err := parseKind(levelerNames[:], s, "leveler")
	return LevelerKind(k), err
}

// ParseProtectorKind maps a framework's display name ("WLR", "FREE-p",
// "LLS", "none") back to its ProtectorKind. The empty string selects
// the DefaultConfig framework, WL-Reviver.
func ParseProtectorKind(s string) (ProtectorKind, error) {
	if s == "" {
		return ProtectorWLReviver, nil
	}
	k, err := parseKind(protectorNames[:], s, "protector")
	return ProtectorKind(k), err
}

// ParseECCKind maps a scheme's display name ("ECP6", "ECP1", "PAYG")
// back to its ECCKind. The empty string selects ECP6.
func ParseECCKind(s string) (ECCKind, error) {
	if s == "" {
		return ECCECP6, nil
	}
	k, err := parseKind(eccNames[:], s, "ECC")
	return ECCKind(k), err
}
