package wear

import (
	"fmt"
	"math/bits"

	"wlreviver/internal/obs"
	"wlreviver/internal/rng"
)

// srRegion is one Security Refresh region: an XOR-remapped address space
// of power-of-two size that incrementally re-keys itself.
//
// Every address ra in the region is mapped to ra ⊕ key. A refresh round
// introduces a new key and walks a refresh pointer over the region,
// swapping each address's old location (ra ⊕ kPrev) with its new one
// (ra ⊕ kCur). An address is "already remapped" in the current round when
// either it or its swap partner (ra ⊕ kPrev ⊕ kCur) has been passed by
// the pointer; remapped addresses use kCur, the rest still use kPrev.
type srRegion struct {
	size  uint64 // ckpt:skip construction-time region size, validated on restore
	kPrev uint64
	kCur  uint64
	rp    uint64 // next address to refresh; size means round complete
	src   *rng.Source
	swaps uint64
	round uint64

	// tbl memoizes mapSlow for every region address, updated incrementally
	// as the refresh pointer walks: a re-key changes no mapping (the new
	// key only takes effect as addresses are swapped), and each swap
	// re-keys exactly the pair (ra, partner) just processed. nil when the
	// region is too large to memoize.
	// ckpt:derived memo table rebuilt from kPrev/kCur/rp in loadState
	tbl []uint32
}

func newSRRegion(size uint64, src *rng.Source) *srRegion {
	k0 := src.Uint64n(size)
	r := &srRegion{size: size, kPrev: k0, kCur: k0, rp: size, src: src}
	if size <= maxTableDomain {
		r.tbl = make([]uint32, size)
		for ra := uint64(0); ra < size; ra++ {
			r.tbl[ra] = uint32(ra ^ k0)
		}
	}
	return r
}

// remapped reports whether ra has been re-keyed in the current round.
func (r *srRegion) remapped(ra uint64) bool {
	return ra < r.rp || (ra^r.kPrev^r.kCur) < r.rp
}

func (r *srRegion) mapAddr(ra uint64) uint64 {
	if r.tbl != nil {
		return uint64(r.tbl[ra])
	}
	return r.mapSlow(ra)
}

// mapSlow computes the mapping from the refresh registers; the reference
// the incremental table is pinned against.
func (r *srRegion) mapSlow(ra uint64) uint64 {
	if r.remapped(ra) {
		return ra ^ r.kCur
	}
	return ra ^ r.kPrev
}

func (r *srRegion) inverse(da uint64) uint64 {
	raCur := da ^ r.kCur
	if r.remapped(raCur) {
		return raCur
	}
	return da ^ r.kPrev
}

// step performs one refresh action: start a new round if the previous one
// finished, then process the address under the refresh pointer, swapping
// its old and new locations unless its partner was already processed.
// swap is called with region-local device addresses.
func (r *srRegion) step(swap func(a, b uint64)) {
	if r.rp >= r.size {
		r.kPrev = r.kCur
		r.kCur = r.src.Uint64n(r.size)
		r.rp = 0
		r.round++
	}
	ra := r.rp
	partner := ra ^ r.kPrev ^ r.kCur
	if r.kPrev == r.kCur {
		r.rp++
		return // degenerate round (initial key): nothing moves
	}
	if partner < ra {
		r.rp++
		return // pair already swapped when the pointer passed partner
	}
	// The swap callback runs BEFORE the pointer advances: Mover
	// implementations observe the pre-update mapping, the same contract
	// Start-Gap's Migrate follows (see wear.Mover).
	swap(ra^r.kPrev, ra^r.kCur)
	r.rp++
	r.swaps++
	if r.tbl != nil {
		// Advancing rp past ra re-keys exactly ra and its partner (every
		// other address's remapped status is unchanged: it either was
		// already below the old pointer or involves a different pair).
		r.tbl[ra] = uint32(ra ^ r.kCur)
		r.tbl[partner] = uint32(partner ^ r.kCur)
	}
}

// SecurityRefreshConfig configures the scheme.
type SecurityRefreshConfig struct {
	// NumPAs is the (power-of-two) address-space size in blocks.
	NumPAs uint64
	// InnerRegions, when >1, enables the two-level organisation: an outer
	// refresh across the whole space composed with an independent inner
	// refresh per region. Must be a power of two dividing NumPAs; 1
	// selects the single-level scheme.
	InnerRegions uint64
	// OuterWritePeriod is the number of serviced writes per outer refresh
	// step (the scheme's refresh interval).
	OuterWritePeriod uint64
	// InnerWritePeriod is the number of serviced writes per inner refresh
	// step of the written region (two-level only).
	InnerWritePeriod uint64
	// Seed keys the random refresh keys.
	Seed uint64
}

// SecurityRefresh implements the Security Refresh wear-leveling scheme
// (single- or two-level). Unlike Start-Gap it needs no gap block: its
// migrations are swaps (NumDAs == NumPAs).
type SecurityRefresh struct {
	cfg    SecurityRefreshConfig // ckpt:skip construction-time config, fingerprinted by the engine
	outer  *srRegion
	inner  []*srRegion
	shift  uint   // ckpt:derived log2(inner region size), recomputed in New
	mask   uint64 // ckpt:derived inner-region mask, recomputed in New
	outerW uint64
	innerW []uint64

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; RegionSwapped probe
}

// NewSecurityRefresh builds the scheme.
func NewSecurityRefresh(cfg SecurityRefreshConfig) (*SecurityRefresh, error) {
	if cfg.NumPAs == 0 || cfg.NumPAs&(cfg.NumPAs-1) != 0 {
		return nil, fmt.Errorf("wear: security refresh needs a power-of-two space, got %d", cfg.NumPAs)
	}
	if cfg.InnerRegions == 0 {
		cfg.InnerRegions = 1
	}
	if cfg.InnerRegions&(cfg.InnerRegions-1) != 0 || cfg.InnerRegions > cfg.NumPAs {
		return nil, fmt.Errorf("wear: inner regions %d must be a power of two dividing the space", cfg.InnerRegions)
	}
	if cfg.OuterWritePeriod == 0 {
		return nil, fmt.Errorf("wear: OuterWritePeriod must be positive")
	}
	if cfg.InnerRegions > 1 && cfg.InnerWritePeriod == 0 {
		return nil, fmt.Errorf("wear: InnerWritePeriod must be positive with two levels")
	}
	src := rng.New(cfg.Seed ^ 0x5ECFEFFE5)
	s := &SecurityRefresh{
		cfg:   cfg,
		outer: newSRRegion(cfg.NumPAs, src.Fork(0)),
	}
	if cfg.InnerRegions > 1 {
		regionSize := cfg.NumPAs / cfg.InnerRegions
		s.shift = uint(bits.TrailingZeros64(regionSize))
		s.mask = regionSize - 1
		s.inner = make([]*srRegion, cfg.InnerRegions)
		s.innerW = make([]uint64, cfg.InnerRegions)
		for i := range s.inner {
			s.inner[i] = newSRRegion(regionSize, src.Fork(uint64(i)+1))
		}
	}
	return s, nil
}

// Name implements Leveler.
func (s *SecurityRefresh) Name() string {
	if len(s.inner) > 0 {
		return "Security-Refresh-2L"
	}
	return "Security-Refresh"
}

// NumPAs implements Leveler.
func (s *SecurityRefresh) NumPAs() uint64 { return s.cfg.NumPAs }

// NumDAs implements Leveler.
func (s *SecurityRefresh) NumDAs() uint64 { return s.cfg.NumPAs }

// Map implements Leveler.
func (s *SecurityRefresh) Map(pa uint64) uint64 {
	if pa >= s.cfg.NumPAs {
		panic(fmt.Sprintf("wear: security refresh PA %d out of range", pa))
	}
	mid := s.outer.mapAddr(pa)
	if len(s.inner) == 0 {
		return mid
	}
	region := mid >> s.shift
	return region<<s.shift | s.inner[region].mapAddr(mid&s.mask)
}

// Inverse implements Leveler. All DAs are mapped (ok is always true).
func (s *SecurityRefresh) Inverse(da uint64) (uint64, bool) {
	if da >= s.cfg.NumPAs {
		panic(fmt.Sprintf("wear: security refresh DA %d out of range", da))
	}
	mid := da
	if len(s.inner) > 0 {
		region := da >> s.shift
		mid = region<<s.shift | s.inner[region].inverse(da&s.mask)
	}
	return s.outer.inverse(mid), true
}

// midToDA translates an outer-level address to the device address through
// the inner mapping of its region.
func (s *SecurityRefresh) midToDA(mid uint64) uint64 {
	if len(s.inner) == 0 {
		return mid
	}
	region := mid >> s.shift
	return region<<s.shift | s.inner[region].mapAddr(mid&s.mask)
}

// NoteWrite implements Leveler. Outer refreshes are paced by total write
// volume; inner refreshes are paced per region by the writes landing in
// that region, as in the two-level scheme's demand-driven refresh.
func (s *SecurityRefresh) NoteWrite(pa uint64, mover Mover) {
	s.outerW++
	if s.outerW >= s.cfg.OuterWritePeriod {
		s.outerW = 0
		s.outer.step(func(a, b uint64) {
			da1, da2 := s.midToDA(a), s.midToDA(b)
			mover.Swap(da1, da2)
			if s.observer != nil {
				s.observer.Event(obs.Event{Kind: obs.RegionSwapped, A: da1, B: da2})
			}
		})
	}
	if len(s.inner) == 0 {
		return
	}
	region := s.outer.mapAddr(pa) >> s.shift
	s.innerW[region]++
	if s.innerW[region] >= s.cfg.InnerWritePeriod {
		s.innerW[region] = 0
		base := region << s.shift
		s.inner[region].step(func(a, b uint64) {
			mover.Swap(base|a, base|b)
			if s.observer != nil {
				s.observer.Event(obs.Event{Kind: obs.RegionSwapped, A: base | a, B: base | b})
			}
		})
	}
}

// SetObserver attaches an event observer (nil detaches). RegionSwapped
// fires once per outer or inner refresh swap with the device addresses
// exchanged.
func (s *SecurityRefresh) SetObserver(o obs.Observer) { s.observer = o }

// OuterSwaps returns the number of outer-level swaps performed.
func (s *SecurityRefresh) OuterSwaps() uint64 { return s.outer.swaps }

var _ Leveler = (*SecurityRefresh)(nil)
