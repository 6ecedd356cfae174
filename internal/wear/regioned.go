package wear

import (
	"fmt"
	"math/bits"

	"wlreviver/internal/obs"
)

// RegionedStartGap is the practical Start-Gap organisation from the
// original MICRO'09 paper: the memory is divided into R regions, each
// with its own Start and Gap registers and its own gap line, so a gap
// movement copies within a region (bounded latency) and regions level
// independently. A chip-wide static randomizer still decorrelates
// addresses across the whole space, which is what defeats spatially
// concentrated writes.
//
// Under WL-Reviver this is simply another Leveler — the framework revives
// it unmodified, which the tests use as further evidence of generality.
type RegionedStartGap struct {
	regions    []*StartGap
	rand       Randomizer // ckpt:skip construction-time Feistel network, a pure function of the seed
	numPAs     uint64     // ckpt:skip construction-time geometry, validated on restore
	regionSize uint64     // ckpt:skip construction-time geometry, validated on restore
	daStride   uint64     // ckpt:derived regionSize + 1 (each region's private gap line)
	shift      uint       // ckpt:derived log2(regionSize), recomputed in New
}

// RegionedStartGapConfig configures the scheme.
type RegionedStartGapConfig struct {
	// NumPAs is the total software-visible space in blocks.
	NumPAs uint64
	// Regions is the number of independent regions; it must divide
	// NumPAs, and the region size must be a power of two (the region is
	// selected by high address bits, as in the original design).
	Regions uint64
	// GapWritePeriod is ψ per region: one gap move per ψ writes landing
	// in that region.
	GapWritePeriod uint64
	// Randomizer is the chip-wide static scrambler (nil: 4-round
	// Feistel keyed by Seed).
	Randomizer Randomizer
	// Seed keys the default randomizer.
	Seed uint64
}

// NewRegionedStartGap builds the scheme.
func NewRegionedStartGap(cfg RegionedStartGapConfig) (*RegionedStartGap, error) {
	if cfg.NumPAs == 0 || cfg.Regions == 0 {
		return nil, fmt.Errorf("wear: regioned start-gap needs positive space and regions")
	}
	if cfg.NumPAs%cfg.Regions != 0 {
		return nil, fmt.Errorf("wear: regions %d must divide the space %d", cfg.Regions, cfg.NumPAs)
	}
	regionSize := cfg.NumPAs / cfg.Regions
	if regionSize&(regionSize-1) != 0 {
		return nil, fmt.Errorf("wear: region size %d must be a power of two", regionSize)
	}
	if cfg.GapWritePeriod == 0 {
		return nil, fmt.Errorf("wear: GapWritePeriod must be positive")
	}
	r := cfg.Randomizer
	if r == nil {
		var err error
		r, err = NewFeistel(cfg.NumPAs, 4, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	if r.N() != cfg.NumPAs {
		return nil, fmt.Errorf("wear: randomizer domain %d != NumPAs %d", r.N(), cfg.NumPAs)
	}
	// Flatten the chip-wide static scrambler into a lookup table (the
	// per-region Start-Gaps below use Identity, which stays as-is).
	r = Precompute(r)
	s := &RegionedStartGap{
		regions:    make([]*StartGap, cfg.Regions),
		rand:       r,
		numPAs:     cfg.NumPAs,
		regionSize: regionSize,
		daStride:   regionSize + 1,
		shift:      uint(bits.TrailingZeros64(regionSize)),
	}
	for i := range s.regions {
		// Each region runs an un-randomized Start-Gap over its local
		// offsets; the chip-wide randomizer has already scrambled.
		sg, err := NewStartGap(StartGapConfig{
			NumPAs:         regionSize,
			GapWritePeriod: cfg.GapWritePeriod,
			Randomizer:     Identity{Size: regionSize},
		})
		if err != nil {
			return nil, err
		}
		s.regions[i] = sg
	}
	return s, nil
}

// Name implements Leveler.
func (s *RegionedStartGap) Name() string {
	return fmt.Sprintf("Start-Gap-%dR", len(s.regions))
}

// NumPAs implements Leveler.
func (s *RegionedStartGap) NumPAs() uint64 { return s.numPAs }

// NumDAs implements Leveler: one gap line per region.
func (s *RegionedStartGap) NumDAs() uint64 {
	return s.numPAs + uint64(len(s.regions))
}

// split scrambles pa and separates it into (region, local offset).
func (s *RegionedStartGap) split(pa uint64) (uint64, uint64) {
	mid := s.rand.Map(pa)
	return mid >> s.shift, mid & (s.regionSize - 1)
}

// Map implements Leveler.
func (s *RegionedStartGap) Map(pa uint64) uint64 {
	if pa >= s.numPAs {
		panic(fmt.Sprintf("wear: regioned start-gap PA %d out of range [0,%d)", pa, s.numPAs))
	}
	region, local := s.split(pa)
	return region*s.daStride + s.regions[region].Map(local)
}

// Inverse implements Leveler.
func (s *RegionedStartGap) Inverse(da uint64) (uint64, bool) {
	if da >= s.NumDAs() {
		panic(fmt.Sprintf("wear: regioned start-gap DA %d out of range [0,%d)", da, s.NumDAs()))
	}
	region := da / s.daStride
	localDA := da % s.daStride
	local, ok := s.regions[region].Inverse(localDA)
	if !ok {
		return 0, false // the region's gap line
	}
	return s.rand.Inverse(region<<s.shift | local), true
}

// NoteWrite implements Leveler: the written address's region paces its
// own gap, with local migrations translated to chip DAs.
func (s *RegionedStartGap) NoteWrite(pa uint64, mover Mover) {
	region, _ := s.split(pa)
	base := region * s.daStride
	s.regions[region].NoteWrite(0, FuncMover{
		MigrateFn: func(src, dst uint64) { mover.Migrate(base+src, base+dst) },
		SwapFn:    func(a, b uint64) { mover.Swap(base+a, base+b) },
	})
}

// GapMoves returns the total gap movements across regions.
func (s *RegionedStartGap) GapMoves() uint64 {
	var total uint64
	for _, r := range s.regions {
		total += r.GapMoves()
	}
	return total
}

// regionGapObserver moves a region's GapMoved events into chip device
// addresses by adding the region's DA base.
type regionGapObserver struct {
	obs.Observer
	base uint64
}

func (r regionGapObserver) Event(e obs.Event) {
	e.A += r.base
	r.Observer.Event(e)
}

// SetObserver attaches an event observer (nil detaches). Each region's
// gap movement fires GapMoved with the gap's chip DA; the region is that
// DA divided by NumDAs()/regions.
func (s *RegionedStartGap) SetObserver(o obs.Observer) {
	for i, r := range s.regions {
		if o == nil {
			r.SetObserver(nil)
			continue
		}
		r.SetObserver(regionGapObserver{Observer: o, base: uint64(i) * s.daStride})
	}
}

var _ Leveler = (*RegionedStartGap)(nil)
