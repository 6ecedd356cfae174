package pcm

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// SaveState serializes the device's mutable state (wear counters, failure
// thresholds, the packed bitsets, the sparse failure-schedule index, dead
// marks, access stats, and the failure-horizon countdown) into the open
// checkpoint section. Configuration, the derived sigma and lower-bound
// table, and the incremental rescan's chunk minima are not written;
// Restore rebuilds the device from the same Config and overlays this
// state.
func (d *Device) SaveState(e *ckpt.Encoder) {
	e.U64s(d.wear)
	e.U64s(d.nextFail)
	e.U64s(d.exactBits.Words())
	e.U64s(d.deadBits.Words())
	e.U32(uint32(len(d.fails)))
	for _, b := range ckpt.KeysU64(d.fails) {
		fs := d.fails[b]
		e.U64(b)
		e.U16(fs.cells)
		e.F64(fs.u)
	}
	e.Bool(d.content != nil)
	if d.content != nil {
		e.U64s(d.content)
	}
	e.U64(d.stats.Reads)
	e.U64(d.stats.Writes)
	e.U64(d.deadCount)
	e.U64(d.horizon)
	e.U64(d.rescanIn)
}

// LoadState restores state written by SaveState into a device freshly
// built from the identical Config. The flat arrays decode in place (no
// transient copies); on any error the device's state is unspecified, per
// the RestoreCheckpoint contract that a failed restore discards the
// engine. The restored horizon and rescanIn are kept as saved, and every
// chunk is marked dirty so the next rescan recomputes the chunk minima
// from the restored wear and thresholds.
func (d *Device) LoadState(dec *ckpt.Decoder) error {
	dec.U64sInto(d.wear)
	dec.U64sInto(d.nextFail)
	dec.U64sInto(d.exactBits.Words())
	dec.U64sInto(d.deadBits.Words())
	nFails := dec.Count(18) // u64 block + u16 cells + f64 u per entry
	if dec.Err() == nil && uint64(nFails) > d.cfg.NumBlocks {
		return fmt.Errorf("pcm: checkpoint failure index count %d exceeds %d blocks", nFails, d.cfg.NumBlocks)
	}
	fails := make(map[uint64]failState, nFails)
	order := make([]uint64, 0, nFails)
	for i := 0; i < nFails && dec.Err() == nil; i++ {
		b := dec.U64()
		fails[b] = failState{cells: dec.U16(), u: dec.F64()}
		order = append(order, b)
	}
	hasContent := dec.Bool()
	if dec.Err() == nil && hasContent != (d.content != nil) {
		return fmt.Errorf("pcm: checkpoint TrackContent=%v, device has %v", hasContent, d.content != nil)
	}
	if hasContent && d.content != nil {
		dec.U64sInto(d.content)
	}
	reads := dec.U64()
	writes := dec.U64()
	deadCount := dec.U64()
	horizon := dec.U64()
	rescanIn := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if d.exactBits.Count() != uint64(len(fails)) {
		return fmt.Errorf("pcm: checkpoint failure index has %d entries, exact bitmap has %d",
			len(fails), d.exactBits.Count())
	}
	var prev uint64
	for i, b := range order {
		if i > 0 && b <= prev {
			return fmt.Errorf("pcm: checkpoint failure index keys out of order")
		}
		prev = b
		if b >= d.cfg.NumBlocks || !d.exactBits.Test(b) ||
			int(fails[b].cells) > d.cfg.CellsPerBlock {
			return fmt.Errorf("pcm: checkpoint failure index entry for block %d is inconsistent", b)
		}
	}
	if recount := d.deadBits.Count(); recount != deadCount {
		return fmt.Errorf("pcm: checkpoint dead count %d disagrees with bitmap (%d)", deadCount, recount)
	}
	d.fails = fails
	d.stats = AccessStats{Reads: reads, Writes: writes}
	d.deadCount = deadCount
	d.horizon = horizon
	d.rescanIn = rescanIn
	d.markAllDirty()
	return nil
}
