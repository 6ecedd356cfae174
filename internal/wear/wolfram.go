package wear

import (
	"fmt"

	"wlreviver/internal/obs"
	"wlreviver/internal/rng"
)

// wfrRegion is one WoLFRaM decoder region: an explicit permutation of the
// region's addresses held in the programmable address decoder, perturbed
// one random swap at a time as writes accumulate.
type wfrRegion struct {
	size uint64 // ckpt:skip construction-time region size, validated on restore
	perm []uint32
	// ckpt:derived inverse permutation rebuilt from perm in loadState
	inv    []uint32
	writes uint64 // writes since last remap
	swaps  uint64
	src    *rng.Source
}

func newWFRRegion(size uint64, src *rng.Source) *wfrRegion {
	r := &wfrRegion{
		size: size,
		perm: make([]uint32, size),
		inv:  make([]uint32, size),
		src:  src,
	}
	for i := uint64(0); i < size; i++ {
		r.perm[i] = uint32(i)
	}
	// The decoder powers up with a seeded random permutation, so even a
	// write stream that never triggers a remap sees randomized placement.
	src.Shuffle(int(size), func(i, j int) {
		r.perm[i], r.perm[j] = r.perm[j], r.perm[i]
	})
	for i := uint64(0); i < size; i++ {
		r.inv[r.perm[i]] = uint32(i)
	}
	return r
}

// WoLFRaMConfig configures a WoLFRaM leveler.
type WoLFRaMConfig struct {
	// NumPAs is the number of software-visible blocks; the decoder is a
	// bijection, so the scheme uses exactly NumPAs device blocks.
	NumPAs uint64
	// Regions is the number of independent decoder regions. Must divide
	// NumPAs; each region remaps only within itself, bounding decoder
	// storage the way the paper's per-region PRAD does.
	Regions uint64
	// SwapWritePeriod is the remap pace: one candidate swap per this many
	// writes landing in a region.
	SwapWritePeriod uint64
	// Seed keys the per-region swap-selection streams.
	Seed uint64
}

// WoLFRaM implements WoLFRaM-style wear leveling (arXiv:2010.02825): a
// programmable address decoder holds an explicit per-region permutation
// of the address space and perturbs it with seeded random swaps paced by
// the write counts landing in each region. Unlike Start-Gap it needs no
// gap block — every remap is a swap, so NumDAs == NumPAs — and unlike
// Security Refresh the permutation is arbitrary rather than XOR-keyed,
// which is what the decoder's lookup table buys.
type WoLFRaM struct {
	n          uint64 // ckpt:skip construction-time PA-space size, validated on restore
	regionSize uint64 // ckpt:skip construction-time region size, fingerprinted by the engine
	period     uint64 // ckpt:skip construction-time swap pace, fingerprinted by the engine
	regions    []*wfrRegion

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; DecoderRemapped probe
}

// NewWoLFRaM builds the scheme.
func NewWoLFRaM(cfg WoLFRaMConfig) (*WoLFRaM, error) {
	if cfg.NumPAs == 0 {
		return nil, fmt.Errorf("wear: wolfram needs a non-empty PA space")
	}
	if cfg.Regions == 0 || cfg.NumPAs%cfg.Regions != 0 {
		return nil, fmt.Errorf("wear: wolfram regions %d must divide the PA space %d", cfg.Regions, cfg.NumPAs)
	}
	if cfg.SwapWritePeriod == 0 {
		return nil, fmt.Errorf("wear: wolfram SwapWritePeriod must be positive")
	}
	regionSize := cfg.NumPAs / cfg.Regions
	if regionSize > 1<<32 {
		return nil, fmt.Errorf("wear: wolfram region size %d exceeds the decoder's 32-bit entries", regionSize)
	}
	src := rng.New(cfg.Seed ^ 0xADDECDE5)
	w := &WoLFRaM{
		n:          cfg.NumPAs,
		regionSize: regionSize,
		period:     cfg.SwapWritePeriod,
		regions:    make([]*wfrRegion, cfg.Regions),
	}
	for i := range w.regions {
		w.regions[i] = newWFRRegion(regionSize, src.Fork(uint64(i)))
	}
	return w, nil
}

// Name implements Leveler.
func (w *WoLFRaM) Name() string { return "WoLFRaM" }

// NumPAs implements Leveler.
func (w *WoLFRaM) NumPAs() uint64 { return w.n }

// NumDAs implements Leveler. The decoder is a bijection: no spare blocks.
func (w *WoLFRaM) NumDAs() uint64 { return w.n }

// Map implements Leveler.
func (w *WoLFRaM) Map(pa uint64) uint64 {
	if pa >= w.n {
		panic(fmt.Sprintf("wear: wolfram PA %d out of range [0,%d)", pa, w.n))
	}
	region := pa / w.regionSize
	return region*w.regionSize + uint64(w.regions[region].perm[pa%w.regionSize])
}

// Inverse implements Leveler. All DAs are mapped (ok is always true).
func (w *WoLFRaM) Inverse(da uint64) (uint64, bool) {
	if da >= w.n {
		panic(fmt.Sprintf("wear: wolfram DA %d out of range [0,%d)", da, w.n))
	}
	region := da / w.regionSize
	return region*w.regionSize + uint64(w.regions[region].inv[da%w.regionSize]), true
}

// NoteWrite implements Leveler: every SwapWritePeriod-th write landing in
// a region draws a uniformly random partner address and swaps the written
// address's decoder entry with it.
func (w *WoLFRaM) NoteWrite(pa uint64, mover Mover) {
	if pa >= w.n {
		panic(fmt.Sprintf("wear: wolfram PA %d out of range [0,%d)", pa, w.n))
	}
	region := pa / w.regionSize
	r := w.regions[region]
	r.writes++
	if r.writes < w.period {
		return
	}
	r.writes = 0
	// The partner is always drawn, even when it degenerates to the written
	// address itself: the RNG stream position stays a pure function of the
	// per-region write count, independent of remap outcomes.
	local := pa % w.regionSize
	q := r.src.Uint64n(r.size)
	if q == local {
		return
	}
	base := region * w.regionSize
	daA := base + uint64(r.perm[local])
	daB := base + uint64(r.perm[q])
	// Data moves BEFORE the decoder entries change: the Mover observes the
	// pre-update mapping, the contract wear.Mover documents.
	mover.Swap(daA, daB)
	r.perm[local], r.perm[q] = r.perm[q], r.perm[local]
	r.inv[r.perm[local]] = uint32(local)
	r.inv[r.perm[q]] = uint32(q)
	r.swaps++
	if w.observer != nil {
		w.observer.Event(obs.Event{Kind: obs.DecoderRemapped, A: daA, B: daB})
	}
}

// SetObserver attaches an event observer (nil detaches). DecoderRemapped
// fires once per decoder remap with the device addresses exchanged.
func (w *WoLFRaM) SetObserver(o obs.Observer) { w.observer = o }

// Swaps returns the total number of decoder remaps across all regions.
func (w *WoLFRaM) Swaps() uint64 {
	var total uint64
	for _, r := range w.regions {
		total += r.swaps
	}
	return total
}

var _ Leveler = (*WoLFRaM)(nil)
