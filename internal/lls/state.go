package lls

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// SaveState serializes the protector's mutable state: each salvaging
// group's failed/backup pairing, the backup allocation cursor and the
// counters.
func (l *LLS) SaveState(e *ckpt.Encoder) {
	e.U32(uint32(len(l.groups)))
	for _, g := range l.groups {
		e.U64s(g.failed)
		e.U64s(g.backups)
	}
	e.U64(l.nextBackup)
	e.U64(l.st.SoftwareWrites)
	e.U64(l.st.SoftwareReads)
	e.U64(l.st.RequestAccesses)
	e.U64(l.st.ChunksReserved)
	e.U64(l.st.ShiftWrites)
	e.U64(l.st.Failures)
	e.Bool(l.st.Exposed)
}

// LoadState restores state written by SaveState into a protector built
// over the identical layer stack.
func (l *LLS) LoadState(dec *ckpt.Decoder) error {
	n := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(l.groups) {
		return fmt.Errorf("lls: checkpoint has %d groups, protector has %d", n, len(l.groups))
	}
	groups := make([]group, n)
	for i := range groups {
		// No pairing-length invariant holds here: groups stripe idle
		// backups ahead of need, and backups that themselves fail (or an
		// exhausted backup region) can leave failures outnumbering live
		// backups.
		groups[i].failed = dec.U64s()
		groups[i].backups = dec.U64s()
		if dec.Err() != nil {
			return dec.Err()
		}
	}
	pos, err := l.indexFailed(groups)
	if err != nil {
		return err
	}
	nextBackup := dec.U64()
	var st Stats
	st.SoftwareWrites = dec.U64()
	st.SoftwareReads = dec.U64()
	st.RequestAccesses = dec.U64()
	st.ChunksReserved = dec.U64()
	st.ShiftWrites = dec.U64()
	st.Failures = dec.U64()
	st.Exposed = dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	l.groups = groups
	l.pos = pos
	l.nextBackup = nextBackup
	l.st = st
	return nil
}

// indexFailed builds the pos index over restored failed lists, nil when
// nothing has failed. Each list must hold non-descending data-region DAs
// of its own group, as handleFailure keeps it; anything else is a
// corrupt image. A DA listed twice (handleFailure can re-enter for the
// same block while reserving a chunk) resolves to its first entry, the
// one a search of the sorted list finds.
func (l *LLS) indexFailed(groups []group) ([]uint32, error) {
	var pos []uint32
	for gi, g := range groups {
		for k, da := range g.failed {
			if da >= l.lv.NumDAs() || da%uint64(len(groups)) != uint64(gi) || (k > 0 && da < g.failed[k-1]) {
				return nil, fmt.Errorf("lls: group %d lists failed DA %d out of place: %w", gi, da, ckpt.ErrBadCheckpoint)
			}
			if pos == nil {
				pos = make([]uint32, l.lv.NumDAs())
			}
			if pos[da] == 0 {
				pos[da] = uint32(k) + 1
			}
		}
	}
	return pos, nil
}
