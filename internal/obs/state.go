package obs

import (
	"fmt"
	"slices"
	"strings"

	"wlreviver/internal/ckpt"
)

// slotsByName lists the counter slots in name order, the order
// checkpoints store them in.
var slotsByName = func() []int {
	slots := make([]int, len(counterNames))
	for i := range slots {
		slots[i] = i
	}
	slices.SortFunc(slots, func(a, b int) int { return strings.Compare(counterNames[a], counterNames[b]) })
	return slots
}()

// SaveState serializes the accumulator: the nonzero counters sorted by
// name, the snapshot series and the wear-at-death samples.
func (m *Metrics) SaveState(e *ckpt.Encoder) {
	n := 0
	for _, v := range m.counters {
		if v != 0 {
			n++
		}
	}
	e.U32(uint32(n))
	for _, i := range slotsByName {
		if v := m.counters[i]; v != 0 {
			e.String(counterNames[i])
			e.U64(v)
		}
	}
	e.U32(uint32(len(m.snapshots)))
	for _, s := range m.snapshots {
		e.U64(s.Writes)
		e.F64(s.WritesPerBlock)
		e.F64(s.SurvivalRate)
		e.F64(s.UsableFraction)
		e.U64(s.DeadBlocks)
		e.U64(s.RetiredPages)
		e.I64(int64(s.LiveRemaps))
		e.I64(int64(s.SparePAs))
		e.U64(s.LevelerOps)
		e.U64(s.CacheHits)
		e.U64(s.CacheMisses)
		e.F64(s.AccessRatio)
		e.F64(s.WearCoV)
	}
	e.F64s(m.deathWear)
}

// LoadState restores state written by SaveState, replacing the
// accumulator's contents. Counters must be known, nonzero and in
// strictly ascending name order, as SaveState writes them.
func (m *Metrics) LoadState(dec *ckpt.Decoder) error {
	nCounters := dec.Count(4 + 8) // a name's length prefix and the value
	if err := dec.Err(); err != nil {
		return err
	}
	var counters [numKinds + 1]uint64
	prev := ""
	for i := 0; i < nCounters; i++ {
		name := dec.String()
		v := dec.U64()
		if dec.Err() != nil {
			return dec.Err()
		}
		if i > 0 && name <= prev {
			return fmt.Errorf("obs: checkpoint counters out of order")
		}
		prev = name
		slot, ok := counterSlot(name)
		if !ok {
			return fmt.Errorf("obs: checkpoint counter %q unknown", name)
		}
		if v == 0 {
			return fmt.Errorf("obs: checkpoint counter %q is zero", name)
		}
		counters[slot] = v
	}
	nSnaps := dec.Count(13 * 8) // thirteen 8-byte fields per snapshot
	if err := dec.Err(); err != nil {
		return err
	}
	snapshots := make([]Snapshot, nSnaps)
	for i := range snapshots {
		snapshots[i] = Snapshot{
			Writes:         dec.U64(),
			WritesPerBlock: dec.F64(),
			SurvivalRate:   dec.F64(),
			UsableFraction: dec.F64(),
			DeadBlocks:     dec.U64(),
			RetiredPages:   dec.U64(),
			LiveRemaps:     int(dec.I64()),
			SparePAs:       int(dec.I64()),
			LevelerOps:     dec.U64(),
			CacheHits:      dec.U64(),
			CacheMisses:    dec.U64(),
			AccessRatio:    dec.F64(),
			WearCoV:        dec.F64(),
		}
	}
	deathWear := dec.F64s()
	if err := dec.Err(); err != nil {
		return err
	}
	m.counters = counters
	m.snapshots = snapshots
	m.deathWear = deathWear
	return nil
}
