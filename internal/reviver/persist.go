package reviver

// Reboot support (paper §III-A): the retirement bitmap — one bit per
// page, set at most once in the chip's lifetime — is persisted in PCM so
// a rebooting OS knows which pages to keep away from, and the framework's
// pointers live in PCM anyway (in-block pointers in the failed blocks,
// inverse pointers in the acquired pages' pointer sections), so the
// controller's tables can be rebuilt by reading them back — "even in very
// rare cases where the pointers are lost, they can be rebuilt by scanning
// the entire PCM".
//
// The simulator keeps that PCM-resident metadata authoritatively in the
// shadow arena (see shadowNode); Snapshot models reading it out of the
// chip at shutdown (or the full scan), and Restore models the reboot:
// the OS reloads the bitmap and the controller reloads its links. The
// image carries no checksum, so Restore range-checks every address and
// bounds every length by the bytes left: a damaged image is rejected
// with an error, never a panic.

import (
	"encoding/binary"
	"fmt"
)

var snapshotMagic = [4]byte{'W', 'L', 'R', 'V'}

const snapshotVersion = 1

// Snapshot serialises the framework's PCM-resident metadata: the OS
// retirement bitmap, the failed-block links, the spare-PA pool and the
// inverse-pointer slot assignments. It fails while a wear-leveling
// delivery is suspended (a clean shutdown completes pending work first;
// hardware would drain the migration buffer).
func (r *Reviver) Snapshot() ([]byte, error) {
	if len(r.pending) > 0 {
		return nil, fmt.Errorf("reviver: cannot snapshot with %d suspended deliveries", len(r.pending))
	}
	bitmap := r.os.Bitmap()
	var out []byte
	out = append(out, snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, snapshotVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(bitmap)))
	out = append(out, bitmap...)
	// Links, in ascending-DA order so snapshot bytes are deterministic.
	out = binary.LittleEndian.AppendUint64(out, uint64(r.linked))
	for _, da := range r.LinkedDAs() {
		idx, _ := arenaIndex(r.daIdx, da)
		out = binary.LittleEndian.AppendUint64(out, da)
		out = binary.LittleEndian.AppendUint64(out, r.nodes[idx].pa)
	}
	// Spares, oldest-acquired first (the free list runs newest-first, so
	// reversed here); Restore re-pushes them in read order, reproducing
	// the exact hand-out order.
	spares := r.SparePAs()
	out = binary.LittleEndian.AppendUint64(out, uint64(len(spares)))
	for i := len(spares) - 1; i >= 0; i-- {
		out = binary.LittleEndian.AppendUint64(out, spares[i])
	}
	// Pointer-slot assignments, in arena (acquisition) order.
	nSlots := 0
	for _, n := range r.nodes {
		if n.slot != noSlot {
			nSlots++
		}
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(nSlots))
	for _, n := range r.nodes {
		if n.slot != noSlot {
			out = binary.LittleEndian.AppendUint64(out, n.pa)
			out = binary.LittleEndian.AppendUint64(out, n.slot)
		}
	}
	return out, nil
}

// Restore rebuilds the framework's state from a Snapshot after a reboot:
// the OS model reloads the retirement bitmap and the controller reloads
// links, spares and slot assignments. The device (the PCM itself, with
// its wear and failures) and the wear-leveling scheme's registers are
// non-volatile and must be the ones the snapshot was taken against;
// Restore validates the snapshot against them.
func (r *Reviver) Restore(data []byte) error {
	rd := &snapReader{buf: data}
	var magic [4]byte
	if err := rd.bytes(magic[:]); err != nil {
		return fmt.Errorf("reviver: reading snapshot magic: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("reviver: bad snapshot magic %q", magic)
	}
	version, err := rd.u32()
	if err != nil {
		return fmt.Errorf("reviver: reading snapshot version: %w", err)
	}
	if version != snapshotVersion {
		return fmt.Errorf("reviver: unsupported snapshot version %d", version)
	}
	bmLen, err := rd.count(1)
	if err != nil {
		return err
	}
	bitmap := make([]byte, bmLen)
	if err := rd.bytes(bitmap); err != nil {
		return fmt.Errorf("reviver: reading bitmap: %w", err)
	}
	if err := r.os.LoadBitmap(bitmap); err != nil {
		return err
	}
	// retired reports whether pa addresses a block of a retired page;
	// every shadow and pointer-slot PA must.
	retired := func(pa uint64) bool { return pa < r.lv.NumPAs() && r.os.Retired(pa) }

	nPtr, err := rd.count(16)
	if err != nil {
		return err
	}
	nodes := make([]shadowNode, 0, nPtr)
	for i := 0; i < nPtr; i++ {
		da, err := rd.u64()
		if err != nil {
			return err
		}
		pa, err := rd.u64()
		if err != nil {
			return err
		}
		if da >= r.lv.NumDAs() {
			return fmt.Errorf("reviver: snapshot links DA %d outside the DA space", da)
		}
		if !r.be.Dead(da) {
			return fmt.Errorf("reviver: snapshot links DA %d but the chip says it is healthy", da)
		}
		if !retired(pa) {
			return fmt.Errorf("reviver: snapshot shadow PA %d is not in a retired page", pa)
		}
		nodes = append(nodes, shadowNode{pa: pa, da: da, slot: noSlot, next: noNode})
	}
	// Spares were written oldest-acquired first; pushing in read order
	// leaves the most recently acquired at the free-list head, the same
	// hand-out order the snapshotted framework had.
	nAvail, err := rd.count(8)
	if err != nil {
		return err
	}
	freeHead := noNode
	for i := 0; i < nAvail; i++ {
		pa, err := rd.u64()
		if err != nil {
			return err
		}
		if !retired(pa) {
			return fmt.Errorf("reviver: snapshot spare PA %d is not in a retired page", pa)
		}
		idx := uint32(len(nodes))
		nodes = append(nodes, shadowNode{pa: pa, da: noDA, slot: noSlot, next: freeHead})
		freeHead = idx
	}
	daIdx, paIdx, linked, err := r.indexArena(nodes, "snapshot")
	if err != nil {
		return err
	}
	nSlot, err := rd.count(16)
	if err != nil {
		return err
	}
	for i := 0; i < nSlot; i++ {
		pa, err := rd.u64()
		if err != nil {
			return err
		}
		slot, err := rd.u64()
		if err != nil {
			return err
		}
		idx, ok := arenaIndex(paIdx, pa)
		if !ok {
			return fmt.Errorf("reviver: snapshot assigns pointer slot %d to unknown PA %d", slot, pa)
		}
		if !retired(slot) {
			return fmt.Errorf("reviver: snapshot pointer slot %d is not in a retired page", slot)
		}
		n := &nodes[idx]
		if n.slot != noSlot {
			return fmt.Errorf("reviver: snapshot assigns two pointer slots to PA %d", pa)
		}
		n.slot = slot
	}

	r.nodes = nodes
	r.daIdx = daIdx
	r.paIdx = paIdx
	r.linked = linked
	r.freeHead = freeHead
	r.spares = nAvail
	r.pending = nil
	r.pendVals = make(map[uint64]pendingVal)
	r.orphans = make(map[uint64]struct{})
	return nil
}

// indexArena builds the dense DA and PA indexes over an arena decoded by
// Restore or LoadState (src names which, for errors). It rejects a node
// whose PA, linked DA or pointer slot lies outside the leveler's spaces
// and a PA or DA that appears twice, and it allocates nothing for an
// empty arena — the state of a chip that never acquired a page.
func (r *Reviver) indexArena(nodes []shadowNode, src string) (daIdx, paIdx []uint32, linked int, err error) {
	if len(nodes) == 0 {
		return nil, nil, 0, nil
	}
	daIdx = make([]uint32, r.lv.NumDAs())
	paIdx = make([]uint32, r.lv.NumPAs())
	for i, n := range nodes {
		if n.pa >= uint64(len(paIdx)) {
			return nil, nil, 0, fmt.Errorf("reviver: %s shadow PA %d outside the PA space", src, n.pa)
		}
		if paIdx[n.pa] != 0 {
			return nil, nil, 0, fmt.Errorf("reviver: %s repeats shadow PA %d", src, n.pa)
		}
		if n.slot != noSlot && n.slot >= uint64(len(paIdx)) {
			return nil, nil, 0, fmt.Errorf("reviver: %s pointer slot %d outside the PA space", src, n.slot)
		}
		paIdx[n.pa] = uint32(i) + 1
		if n.da == noDA {
			continue
		}
		if n.da >= uint64(len(daIdx)) {
			return nil, nil, 0, fmt.Errorf("reviver: %s links DA %d outside the DA space", src, n.da)
		}
		if other := daIdx[n.da]; other != 0 {
			return nil, nil, 0, fmt.Errorf("reviver: %s links DA %d to shadow PAs %d and %d",
				src, n.da, nodes[other-1].pa, n.pa)
		}
		daIdx[n.da] = uint32(i) + 1
		linked++
	}
	return daIdx, paIdx, linked, nil
}

// snapReader is a bounds-checked little-endian reader.
type snapReader struct {
	buf []byte
	off int
}

func (s *snapReader) bytes(dst []byte) error {
	if s.off+len(dst) > len(s.buf) {
		return fmt.Errorf("reviver: snapshot truncated at offset %d", s.off)
	}
	copy(dst, s.buf[s.off:])
	s.off += len(dst)
	return nil
}

func (s *snapReader) u32() (uint32, error) {
	var b [4]byte
	if err := s.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (s *snapReader) u64() (uint64, error) {
	var b [8]byte
	if err := s.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// count reads a length prefix and rejects one claiming more elements of
// elemSize bytes than the input has left, so a damaged length can never
// drive an oversized allocation.
func (s *snapReader) count(elemSize int) (int, error) {
	n, err := s.u64()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(s.buf)-s.off)/elemSize) {
		return 0, fmt.Errorf("reviver: snapshot count %d at offset %d exceeds the remaining input", n, s.off)
	}
	return int(n), nil
}
