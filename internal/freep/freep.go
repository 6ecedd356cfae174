// Package freep implements the adapted FREE-p baseline of the paper's
// §IV-C (original: Yoon et al., HPCA 2011).
//
// FREE-p hides a failed block by embedding, in the failed block itself
// (protected by a strong 7-modular-redundancy code), a pointer to a free
// slot — a healthy block in a reserved remap region. As designed, FREE-p
// acquires that region incrementally with OS support, but then it cannot
// coexist with wear leveling: the slots' device addresses are recorded
// directly, so migrating slot data would strand the pointers. The paper
// therefore adapts it: a fixed fraction of the PCM is pre-reserved as
// the remap region, outside the wear-leveling space, so slots never
// move. The adapted scheme works with Start-Gap until the pre-reserved
// slots run out; the next failure then reaches the wear-leveling scheme,
// which ceases to function (Figure 7's cliffs).
package freep

import (
	"fmt"

	"wlreviver/internal/cache"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/wear"
)

// Config parameterises the adapted FREE-p.
type Config struct {
	// ReserveFraction is the fraction of total PCM capacity pre-reserved
	// as the remap region (the paper sweeps 0, 0.05, 0.10, 0.15).
	ReserveFraction float64
	// RemapCache, when non-nil, caches failed-block remap pointers.
	RemapCache *cache.Cache
}

// Stats counts the baseline's activity.
type Stats struct {
	SoftwareWrites  uint64
	SoftwareReads   uint64
	RequestAccesses uint64
	SlotsUsed       uint64
	Exposed         bool
	LostWrites      uint64
}

// FREEp is the adapted FREE-p protector. The reserved slots occupy the
// device blocks above the wear-leveling space: DA layout is
// [0, lv.NumDAs()) for the leveler, then ReservedSlots() slot blocks.
type FREEp struct {
	cfg Config         // ckpt:skip construction-time config, fingerprinted by the engine
	lv  wear.Leveler   // ckpt:skip wiring; the leveler checkpoints itself
	be  *mc.Backend    // ckpt:skip wiring; the backend checkpoints itself
	os  *osmodel.Model // ckpt:skip wiring; the OS model checkpoints itself

	slots    []uint64          // free slot DAs, allocated from the end
	remap    map[uint64]uint64 // failed DA -> slot DA
	reserved uint64            // ckpt:derived recomputed from cfg in New
	st       Stats
}

// ReservedSlots returns the number of slot blocks a device must provide
// beyond the leveler's DA space for the given total data blocks and
// reserve fraction (reserve is a fraction of the combined capacity).
func ReservedSlots(dataBlocks uint64, fraction float64) uint64 {
	if fraction <= 0 {
		return 0
	}
	// reserved = fraction * (data + reserved)  =>  reserved = data*f/(1-f)
	return uint64(float64(dataBlocks) * fraction / (1 - fraction))
}

// New builds the protector. The backend's device must hold
// lv.NumDAs() + ReservedSlots(lv.NumPAs(), cfg.ReserveFraction) blocks.
func New(cfg Config, lv wear.Leveler, be *mc.Backend, os *osmodel.Model) (*FREEp, error) {
	if cfg.ReserveFraction < 0 || cfg.ReserveFraction >= 1 {
		return nil, fmt.Errorf("freep: reserve fraction %v outside [0,1)", cfg.ReserveFraction)
	}
	reserved := ReservedSlots(lv.NumPAs(), cfg.ReserveFraction)
	need := lv.NumDAs() + reserved
	if be.Dev.NumBlocks() < need {
		return nil, fmt.Errorf("freep: device has %d blocks, need %d (%d leveler + %d reserved)",
			be.Dev.NumBlocks(), need, lv.NumDAs(), reserved)
	}
	f := &FREEp{
		cfg:      cfg,
		lv:       lv,
		be:       be,
		os:       os,
		remap:    make(map[uint64]uint64),
		reserved: reserved,
	}
	f.slots = make([]uint64, 0, reserved)
	for i := uint64(0); i < reserved; i++ {
		f.slots = append(f.slots, lv.NumDAs()+i)
	}
	return f, nil
}

// Name implements mc.Protector.
func (f *FREEp) Name() string {
	return fmt.Sprintf("FREE-p(%.0f%%)", f.cfg.ReserveFraction*100)
}

// Stats returns a copy of the counters.
func (f *FREEp) Stats() Stats { return f.st }

// RequestCounts implements mc.Protector.
func (f *FREEp) RequestCounts() (requests, accesses uint64) {
	return f.st.SoftwareWrites + f.st.SoftwareReads, f.st.RequestAccesses
}

// FreeSlots returns the number of unallocated remap slots.
func (f *FREEp) FreeSlots() int { return len(f.slots) }

// Crippled implements mc.Crippler: once a failure is exposed to the
// wear-leveling scheme it stops functioning.
func (f *FREEp) Crippled() bool { return f.st.Exposed }

// takeSlot pops a free slot.
func (f *FREEp) takeSlot() (uint64, bool) {
	if len(f.slots) == 0 {
		return 0, false
	}
	s := f.slots[len(f.slots)-1]
	f.slots = f.slots[:len(f.slots)-1]
	return s, true
}

// effective resolves da through its remap pointer, charging the pointer
// read unless cached. FREE-p chains are always one hop: when a slot
// fails, the pointer in the original failed block is rewritten. Only a
// block the backend has declared dead can carry a pointer (writeTo sets
// one only after a write to it failed), so a healthy block resolves to
// itself without consulting the remap table.
func (f *FREEp) effective(da uint64) (uint64, uint64) {
	if !f.be.Dead(da) {
		return da, 0
	}
	slot, ok := f.remap[da]
	if !ok {
		return da, 0
	}
	if f.cfg.RemapCache != nil && f.cfg.RemapCache.Lookup(da) {
		return slot, 0
	}
	f.be.ReadRaw(da) // read the embedded pointer
	return slot, 1
}

// writeTo delivers a write to the storage behind da, allocating slots on
// failures. It returns the raw accesses used and false when the failure
// had to be exposed (no slots left).
func (f *FREEp) writeTo(da, tag uint64) (uint64, bool) {
	target, accesses := f.effective(da)
	for {
		accesses++
		if f.be.WriteRaw(target) {
			if f.be.Dev.TracksContent() {
				f.be.Dev.SetContent(pcm.BlockID(target), tag)
			}
			return accesses, true
		}
		// The target failed: rewrite the original block's pointer to a
		// fresh slot (the dead slot is abandoned).
		slot, ok := f.takeSlot()
		if !ok {
			f.st.Exposed = true
			f.st.LostWrites++
			return accesses, false
		}
		f.remap[da] = slot
		f.st.SlotsUsed++
		f.be.Dev.Write(pcm.BlockID(da)) // pointer write (7MR-coded)
		if f.cfg.RemapCache != nil {
			f.cfg.RemapCache.Invalidate(da)
		}
		target = slot
	}
}

// Write implements mc.Protector.
func (f *FREEp) Write(pa, tag uint64) mc.WriteResult {
	f.st.SoftwareWrites++
	da := f.lv.Map(pa)
	accesses, ok := f.writeTo(da, tag)
	f.st.RequestAccesses += accesses
	if ok {
		return mc.WriteResult{Accesses: accesses}
	}
	// Slots exhausted: the failure is exposed (wear leveling has ceased)
	// and handled by the standard OS path — page retirement, data
	// relocation, retry at the fresh translation.
	f.relocate(pa)
	return mc.WriteResult{Accesses: accesses, Retry: true}
}

// relocate retires pa's page via the OS and copies its data out.
func (f *FREEp) relocate(pa uint64) {
	_, relocs := f.os.ReportFailure(pa)
	for _, rc := range relocs {
		src, _ := f.effective(f.lv.Map(rc.OldPA))
		if f.be.Dead(src) {
			continue
		}
		f.be.ReadRaw(src)
		tag := f.be.Dev.Content(pcm.BlockID(src))
		f.writeTo(f.lv.Map(rc.NewPA), tag)
	}
}

// Read implements mc.Protector.
func (f *FREEp) Read(pa uint64) (uint64, uint64) {
	f.st.SoftwareReads++
	target, accesses := f.effective(f.lv.Map(pa))
	f.be.ReadRaw(target)
	accesses++
	f.st.RequestAccesses += accesses
	if f.be.Dead(target) {
		return 0, accesses
	}
	return f.be.Dev.Content(pcm.BlockID(target)), accesses
}

// ResumePending implements mc.Protector: FREE-p never suspends (slots
// are pre-reserved; exhaustion is terminal).
func (f *FREEp) ResumePending() uint64 { return 0 }

// Migrate implements wear.Mover. Slot blocks are outside the
// wear-leveling space, so migrating into or out of a hidden failure
// works: reads and writes resolve through the stable DA pointers.
func (f *FREEp) Migrate(src, dst uint64) {
	esrc, _ := f.effective(src)
	if f.be.Dead(esrc) {
		return // nothing recoverable to move
	}
	f.be.ReadRaw(esrc)
	tag := f.be.Dev.Content(pcm.BlockID(esrc))
	f.writeTo(dst, tag)
}

// Swap implements wear.Mover.
func (f *FREEp) Swap(a, b uint64) {
	ea, _ := f.effective(a)
	eb, _ := f.effective(b)
	f.be.ReadRaw(ea)
	f.be.ReadRaw(eb)
	ta, tb := f.be.Dev.Content(pcm.BlockID(ea)), f.be.Dev.Content(pcm.BlockID(eb))
	deadA := f.be.Dead(ea)
	deadB := f.be.Dead(eb)
	if !deadB {
		f.writeTo(a, tb)
	}
	if !deadA {
		f.writeTo(b, ta)
	}
}

// SoftwareUsableFraction implements mc.SpaceReporter: the paper's
// Figure 7 metric — PCM space excluding pre-reserved space and failed
// blocks. Failures hidden behind slots cost nothing extra (the slot is
// already inside the reserve); after exposure, every reported failure
// retires a page.
func (f *FREEp) SoftwareUsableFraction() float64 {
	total := float64(f.lv.NumPAs() + f.reserved)
	return f.os.UsableFraction() * float64(f.lv.NumPAs()) / total
}

var (
	_ mc.Protector     = (*FREEp)(nil)
	_ mc.Crippler      = (*FREEp)(nil)
	_ mc.SpaceReporter = (*FREEp)(nil)
)
