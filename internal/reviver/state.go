package reviver

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// SaveState serializes the framework's mutable state: the shadow arena
// (links, slot assignments and the spare free list as one contiguous
// run of nodes), suspended deliveries and activity counters. The dense
// DA and PA indexes, the link count and the spare count are derived from
// the arena and are rebuilt on load. Unlike Snapshot (the in-PCM reboot
// image, which refuses pending operations), this is a faithful mid-run
// capture.
func (r *Reviver) SaveState(e *ckpt.Encoder) {
	e.U32(uint32(len(r.nodes)))
	for _, n := range r.nodes {
		e.U64(n.pa)
		e.U64(n.da)
		e.U64(n.slot)
		e.U32(n.next)
	}
	e.U32(r.freeHead)
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
	nNodes := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	if nNodes*28 > 1<<30 { // each node is 28 payload bytes
		return fmt.Errorf("reviver: checkpoint arena size %d implausible", nNodes)
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
	daIdx, paIdx, linked, err := r.indexArena(nodes, "checkpoint")
	if err != nil {
		return err
	}
	spares := 0
	for idx := freeHead; idx != noNode; {
		if int(idx) >= len(nodes) {
			return fmt.Errorf("reviver: checkpoint free list index %d outside arena of %d", idx, len(nodes))
		}
		if nodes[idx].da != noDA {
			return fmt.Errorf("reviver: checkpoint free list holds linked shadow PA %d", nodes[idx].pa)
		}
		spares++
		if spares > len(nodes) {
			return fmt.Errorf("reviver: checkpoint free list cycles")
		}
		idx = nodes[idx].next
	}
	if linked+spares != len(nodes) {
		return fmt.Errorf("reviver: checkpoint arena has %d nodes but %d linked + %d spare",
			len(nodes), linked, spares)
	}
	r.nodes = nodes
	r.freeHead = freeHead
	r.daIdx = daIdx
	r.paIdx = paIdx
	r.linked = linked
	r.spares = spares
	r.pending = pending
	r.pendVals = pendVals
	r.orphans = orphans
	r.lastWritePA = lastWritePA
	r.lastWriteOK = lastWriteOK
	r.st = st
	return nil
}
