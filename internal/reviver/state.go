package reviver

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// SaveState serializes the framework's mutable state: the shadow arena
// (encodeArena), suspended deliveries and activity counters. The dense
// DA and PA indexes, the link count and the spare count are derived from
// the arena and are rebuilt on load. Unlike Snapshot (the in-PCM reboot
// image, which refuses pending operations), this is a faithful mid-run
// capture.
func (r *Reviver) SaveState(e *ckpt.Encoder) {
	encodeArena(e, r.nodes, r.freeHead)
	e.U32(uint32(len(r.pending)))
	for _, p := range r.pending {
		e.U64(p.entry)
		e.U64(p.tag)
		e.Bool(p.has)
		e.U64(p.headPA)
		e.Bool(p.hasHead)
	}
	e.U32(uint32(len(r.pendVals)))
	for _, entry := range ckpt.KeysU64(r.pendVals) {
		v := r.pendVals[entry]
		e.U64(entry)
		e.U64(v.tag)
		e.Bool(v.has)
	}
	e.SetU64(r.orphans)
	e.U64(r.lastWritePA)
	e.Bool(r.lastWriteOK)
	e.U64(r.st.SoftwareWrites)
	e.U64(r.st.SoftwareReads)
	e.U64(r.st.RequestAccesses)
	e.U64(r.st.MaintenanceAccesses)
	e.U64(r.st.PagesAcquired)
	e.U64(r.st.SacrificedWrites)
	e.U64(r.st.LinksCreated)
	e.U64(r.st.ChainSwitches)
	e.U64(r.st.Suspensions)
	e.U64(r.st.RelocationsDropped)
}

// LoadState restores state written by SaveState into a framework built
// over the identical layer stack.
func (r *Reviver) LoadState(dec *ckpt.Decoder) error {
	nodes, freeHead, ix, err := r.decodeArena(dec)
	if err != nil {
		return err
	}
	nPend := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	if nPend*18 > 1<<30 { // each pending op is 18 payload bytes
		return fmt.Errorf("reviver: checkpoint pending count %d implausible", nPend)
	}
	pending := make([]pendingOp, nPend)
	for i := range pending {
		pending[i] = pendingOp{
			entry:   dec.U64(),
			tag:     dec.U64(),
			has:     dec.Bool(),
			headPA:  dec.U64(),
			hasHead: dec.Bool(),
		}
	}
	nVals := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	pendVals := make(map[uint64]pendingVal, nVals)
	var prevEntry uint64
	for i := 0; i < nVals; i++ {
		entry := dec.U64()
		v := pendingVal{tag: dec.U64(), has: dec.Bool()}
		if dec.Err() != nil {
			return dec.Err()
		}
		if i > 0 && entry <= prevEntry {
			return fmt.Errorf("reviver: checkpoint pending values out of order")
		}
		prevEntry = entry
		pendVals[entry] = v
	}
	orphans := dec.SetU64()
	lastWritePA := dec.U64()
	lastWriteOK := dec.Bool()
	var st Stats
	st.SoftwareWrites = dec.U64()
	st.SoftwareReads = dec.U64()
	st.RequestAccesses = dec.U64()
	st.MaintenanceAccesses = dec.U64()
	st.PagesAcquired = dec.U64()
	st.SacrificedWrites = dec.U64()
	st.LinksCreated = dec.U64()
	st.ChainSwitches = dec.U64()
	st.Suspensions = dec.U64()
	st.RelocationsDropped = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	r.nodes = nodes
	r.freeHead = freeHead
	r.setIndexes(ix)
	r.pending = pending
	r.pendVals = pendVals
	r.orphans = orphans
	r.lastWritePA = lastWritePA
	r.lastWriteOK = lastWriteOK
	r.st = st
	return nil
}

// encodeArena writes the shadow arena verbatim, in acquisition order:
// the node count, each node's PA, linked DA (noDA for a spare), pointer
// slot and free-list link, then the free-list head. It is both the head
// of SaveState's section and the body of the reboot image (Snapshot).
func encodeArena(e *ckpt.Encoder, nodes []shadowNode, freeHead uint32) {
	e.U32(uint32(len(nodes)))
	for _, n := range nodes {
		e.U64(n.pa)
		e.U64(n.da)
		e.U64(n.slot)
		e.U32(n.next)
	}
	e.U32(freeHead)
}

// arenaIndexes are the fields derived from a decoded arena: the dense DA
// and PA indexes, the link count and the spare count.
type arenaIndexes struct {
	daIdx, paIdx   []uint32
	linked, spares int
}

// setIndexes installs indexes built by decodeArena.
func (r *Reviver) setIndexes(ix arenaIndexes) {
	r.daIdx, r.paIdx = ix.daIdx, ix.paIdx
	r.linked, r.spares = ix.linked, ix.spares
}

// decodeArena reads an arena written by encodeArena and validates it
// against the leveler's spaces, for LoadState and Restore alike. It
// rejects a node whose PA, linked DA or pointer slot lies outside those
// spaces, a PA or DA that appears twice, and a free list that leaves the
// arena, holds a linked node or cycles; every node must be linked or
// spare. It returns the arena with its derived indexes, and allocates no
// indexes for an empty arena — the state of a chip that never acquired a
// page.
func (r *Reviver) decodeArena(dec *ckpt.Decoder) ([]shadowNode, uint32, arenaIndexes, error) {
	var ix arenaIndexes
	nNodes := dec.U32() // 0 after a read error, which the next Err reports
	// Each node holds a distinct PA, so a longer arena is corrupt; the
	// bound also keeps a damaged count from driving the allocation.
	if uint64(nNodes) > r.lv.NumPAs() {
		return nil, 0, ix, fmt.Errorf("reviver: arena of %d nodes exceeds the %d-PA space", nNodes, r.lv.NumPAs())
	}
	nodes := make([]shadowNode, nNodes)
	for i := range nodes {
		nodes[i] = shadowNode{
			pa:   dec.U64(),
			da:   dec.U64(),
			slot: dec.U64(),
			next: dec.U32(),
		}
	}
	freeHead := dec.U32()
	if err := dec.Err(); err != nil {
		return nil, 0, ix, err
	}
	if len(nodes) > 0 {
		ix.daIdx = make([]uint32, r.lv.NumDAs())
		ix.paIdx = make([]uint32, r.lv.NumPAs())
	}
	for i, n := range nodes {
		if n.pa >= uint64(len(ix.paIdx)) {
			return nil, 0, ix, fmt.Errorf("reviver: arena shadow PA %d outside the PA space", n.pa)
		}
		if ix.paIdx[n.pa] != 0 {
			return nil, 0, ix, fmt.Errorf("reviver: arena repeats shadow PA %d", n.pa)
		}
		if n.slot != noSlot && n.slot >= uint64(len(ix.paIdx)) {
			return nil, 0, ix, fmt.Errorf("reviver: arena pointer slot %d outside the PA space", n.slot)
		}
		ix.paIdx[n.pa] = uint32(i) + 1
		if n.da == noDA {
			continue
		}
		if n.da >= uint64(len(ix.daIdx)) {
			return nil, 0, ix, fmt.Errorf("reviver: arena links DA %d outside the DA space", n.da)
		}
		if other := ix.daIdx[n.da]; other != 0 {
			return nil, 0, ix, fmt.Errorf("reviver: arena links DA %d to shadow PAs %d and %d",
				n.da, nodes[other-1].pa, n.pa)
		}
		ix.daIdx[n.da] = uint32(i) + 1
		ix.linked++
	}
	for idx := freeHead; idx != noNode; idx = nodes[idx].next {
		if int(idx) >= len(nodes) {
			return nil, 0, ix, fmt.Errorf("reviver: free list index %d outside arena of %d", idx, len(nodes))
		}
		if nodes[idx].da != noDA {
			return nil, 0, ix, fmt.Errorf("reviver: free list holds linked shadow PA %d", nodes[idx].pa)
		}
		ix.spares++
		if ix.spares > len(nodes) {
			return nil, 0, ix, fmt.Errorf("reviver: free list cycles")
		}
	}
	if ix.linked+ix.spares != len(nodes) {
		return nil, 0, ix, fmt.Errorf("reviver: arena has %d nodes but %d linked + %d spare",
			len(nodes), ix.linked, ix.spares)
	}
	return nodes, freeHead, ix, nil
}
