package freep

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// SaveState serializes the protector's mutable state: the free-slot
// pool, failed-block remaps and counters.
func (f *FREEp) SaveState(e *ckpt.Encoder) {
	e.U64s(f.slots)
	e.MapU64(f.remap)
	e.U32(0) // retired pair-coding table, always empty
	e.U64(f.st.SoftwareWrites)
	e.U64(f.st.SoftwareReads)
	e.U64(f.st.RequestAccesses)
	e.U64(f.st.SlotsUsed)
	e.Bool(f.st.Exposed)
	e.U64(f.st.LostWrites)
	e.U64(0) // retired pair-revival count, always 0
}

// LoadState restores state written by SaveState into a protector built
// over the identical layer stack.
func (f *FREEp) LoadState(dec *ckpt.Decoder) error {
	slots := dec.U64s()
	remap := dec.MapU64()
	if n := dec.U32(); n != 0 {
		return fmt.Errorf("freep: checkpoint holds %d retired pair-coding entries: %w", n, ckpt.ErrBadCheckpoint)
	}
	var st Stats
	st.SoftwareWrites = dec.U64()
	st.SoftwareReads = dec.U64()
	st.RequestAccesses = dec.U64()
	st.SlotsUsed = dec.U64()
	st.Exposed = dec.Bool()
	st.LostWrites = dec.U64()
	if n := dec.U64(); n != 0 {
		return fmt.Errorf("freep: checkpoint holds %d retired pair revivals: %w", n, ckpt.ErrBadCheckpoint)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	f.slots = slots
	f.remap = remap
	f.st = st
	return nil
}
