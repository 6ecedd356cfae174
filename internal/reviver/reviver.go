// Package reviver implements WL-Reviver (Fan et al., DSN 2014): a
// framework that lets any in-PCM wear-leveling scheme keep functioning
// after block failures, with no OS support beyond standard
// exception-driven page retirement.
//
// # Design recap (paper §III)
//
// A failed memory block (a device address, DA) is never linked directly
// to a healthy spare block. Instead it is linked to a *virtual shadow
// block* — a physical address (PA) inside an OS page that was retired
// after a reported access error and is therefore invisible to software.
// The PA's current PA→DA mapping, owned by the wear-leveling scheme,
// supplies the actual *shadow block*; when the scheme migrates data and
// updates its mapping, the shadow follows automatically and no pointer
// ever needs rewriting.
//
// Spare PAs are acquired implicitly and incrementally: the first failure
// (or any failure arriving when the spare pool is empty during a software
// write) is reported to the OS, which retires the 4 KB page around the
// reported address; the page's 64 PAs become spares. Failures detected
// during wear-leveling migrations cannot be reported (that would need a
// new interrupt type), so the migration is suspended and the *next
// software write* is reported as failed in its place — a sacrifice the OS
// already knows how to recover from (§III-A).
//
// Each acquired page is split into a virtual-shadow section and an
// inverse-pointer section (Fig. 4): inverse pointers (virtual shadow PA →
// failed DA) let the framework reduce every multi-step chain to one step
// by switching two failed blocks' virtual shadows (Figs. 2–3), so any
// software-reachable failed block is always exactly one hop from a
// healthy shadow (Theorem 1). Blocks whose virtual shadow maps straight
// back to them form PA-DA loops; they hold no data and are unreachable
// from software (Theorems 2–3).
package reviver

import (
	"fmt"
	"slices"

	"wlreviver/internal/cache"
	"wlreviver/internal/mc"
	"wlreviver/internal/obs"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/wear"
)

// Config parameterises the framework.
type Config struct {
	// PointerBytes is the stored size of a PA pointer (paper: 4, i.e.
	// 32-bit). It determines how many inverse pointers fit in one block
	// and thus the split of an acquired page into shadow and
	// inverse-pointer sections.
	PointerBytes int
	// RemapCache, when non-nil, caches failed-block remap metadata so a
	// hit skips the in-block pointer read (Table II's 32 KB cache).
	RemapCache *cache.Cache
	// DisableChainReduction turns off the virtual-shadow switching that
	// keeps chains at one step. For the ablation benchmark only; the
	// paper's design always reduces.
	DisableChainReduction bool
	// ImmediateAcquisition models §III-A's first option: instead of
	// suspending a starved migration until the next software write can be
	// sacrificed, the controller interrupts the OS immediately to acquire
	// a page — a design the paper rejects because it needs a new
	// interrupt type and OS changes. For the ablation benchmark.
	ImmediateAcquisition bool
	// Observer, when non-nil, receives a Revived event each time a failed
	// block is linked to a virtual shadow PA.
	Observer obs.Observer
}

// Stats counts the framework's activity.
type Stats struct {
	// SoftwareWrites and SoftwareReads count serviced requests.
	SoftwareWrites uint64
	SoftwareReads  uint64
	// RequestAccesses counts raw PCM accesses performed to service
	// software requests (data accesses plus chain pointer reads); the
	// paper's Table II reports RequestAccesses / requests.
	RequestAccesses uint64
	// MaintenanceAccesses counts raw accesses for everything else:
	// migrations, link writes, inverse-pointer updates.
	MaintenanceAccesses uint64
	// PagesAcquired counts OS pages retired on the framework's behalf.
	PagesAcquired uint64
	// SacrificedWrites counts healthy writes reported as failed to
	// trigger an acquisition for a suspended migration.
	SacrificedWrites uint64
	// LinksCreated counts failed blocks linked to virtual shadows.
	LinksCreated uint64
	// ChainSwitches counts multi-step chain reductions performed.
	ChainSwitches uint64
	// Suspensions counts wear-leveling operations suspended for lack of
	// spare PAs.
	Suspensions uint64
	// RelocationsDropped counts page-retirement recovery copies that
	// could not be completed (unrecoverable blocks).
	RelocationsDropped uint64
}

// chainLink records one dead block on a walked chain together with the
// arena index of the virtual shadow that was followed out of it.
type chainLink struct {
	da  uint64
	via uint32
}

// pendingVal buffers the data of a suspended delivery so reads stay
// consistent while the migration waits for spare space (the hardware
// analogue is the migration buffer in the memory controller).
type pendingVal struct {
	tag uint64
	has bool
}

// pendingOp is a suspended wear-leveling delivery: write tag into the
// storage chain of entry, with the chain head reachable through headPA.
type pendingOp struct {
	entry   uint64
	tag     uint64
	has     bool
	headPA  uint64
	hasHead bool
}

// shadowNode is one virtual shadow PA's record in the flat arena: the PA
// itself, the failed DA currently linked to it (noDA while the PA sits in
// the spare pool), the pointer-section PA that stores its inverse pointer
// (noSlot when the acquired page had no pointer section), and the free-
// list link threading spare nodes. Nodes are append-only — a shadow PA
// keeps its arena slot for the chip's lifetime — so u32 indices into the
// one slice replace per-entry pointers and SaveState can emit the whole
// remap state as one contiguous section.
type shadowNode struct {
	pa   uint64
	da   uint64
	slot uint64
	next uint32
}

const (
	noDA   = ^uint64(0)
	noSlot = ^uint64(0)
	noNode = ^uint32(0)
)

// Reviver is the WL-Reviver framework instance for one chip.
type Reviver struct {
	cfg Config         // ckpt:skip construction-time config, fingerprinted by the engine
	lv  wear.Leveler   // ckpt:skip wiring; the leveler checkpoints itself
	be  *mc.Backend    // ckpt:skip wiring; the backend checkpoints itself
	os  *osmodel.Model // ckpt:skip wiring; the OS model checkpoints itself

	// nodes is the shadow arena (see shadowNode); freeHead threads the
	// spare pool through it newest-first, generalising the paper's
	// [current, last] register pair to tolerate skips.
	nodes    []shadowNode
	freeHead uint32
	// daIdx and paIdx index the arena densely — daIdx[da] and paIdx[pa]
	// hold arena index+1, so zeroed memory reads as "absent" — the way a
	// hardware remapper resolves an address by direct indexing rather
	// than hashing. Both stay nil until the first page acquisition, so a
	// chip that never fails pays nothing for them.
	daIdx  []uint32 // ckpt:derived failed DA -> arena index+1, rebuilt in LoadState
	paIdx  []uint32 // ckpt:derived shadow PA -> arena index+1, rebuilt in LoadState
	linked int      // ckpt:derived nonzero daIdx entries, recounted in LoadState
	spares int      // ckpt:derived free-list length, recounted in LoadState
	// walk is deliver's reusable path buffer, so walking a chain through
	// dead blocks allocates nothing once it has grown to the longest
	// chain seen.
	walk []chainLink // ckpt:skip scratch buffer, empty between deliveries
	// relocs holds the recovery copies the latest page acquisition
	// performed (see LastRelocations), reused across acquisitions.
	relocs []osmodel.Relocation // ckpt:skip scratch buffer, reset by every Write

	pending  []pendingOp
	pendVals map[uint64]pendingVal // entry DA -> buffered data while suspended
	orphans  map[uint64]struct{}   // dead blocks left unlinked by starved walks

	// lastWritePA remembers the most recent software write target for
	// the ImmediateAcquisition ablation (the page the OS interrupt
	// reports against). Stored as value+flag so recording it on every
	// write stays allocation-free.
	lastWritePA uint64
	lastWriteOK bool

	shadowPerPage uint64 // ckpt:derived recomputed from the page geometry in New
	st            Stats
}

// New builds a Reviver over a leveler, a backend and the OS model. The
// leveler's PA space must match the OS model's block count, and the
// backend's device must cover the leveler's DA space.
func New(cfg Config, lv wear.Leveler, be *mc.Backend, os *osmodel.Model) (*Reviver, error) {
	if cfg.PointerBytes <= 0 {
		cfg.PointerBytes = 4
	}
	blockBytes := be.Dev.Config().BlockBytes
	perBlock := uint64(blockBytes / cfg.PointerBytes)
	if perBlock == 0 {
		return nil, fmt.Errorf("reviver: pointer size %dB exceeds block size %dB",
			cfg.PointerBytes, blockBytes)
	}
	bpp := os.BlocksPerPage()
	shadow := bpp * perBlock / (perBlock + 1)
	if shadow == 0 {
		return nil, fmt.Errorf("reviver: page of %d blocks too small for a shadow section", bpp)
	}
	if lv.NumPAs() != os.NumPages()*bpp {
		return nil, fmt.Errorf("reviver: leveler PA space %d != OS space %d blocks",
			lv.NumPAs(), os.NumPages()*bpp)
	}
	if lv.NumDAs() > be.Dev.NumBlocks() {
		return nil, fmt.Errorf("reviver: leveler DA space %d exceeds device %d blocks",
			lv.NumDAs(), be.Dev.NumBlocks())
	}
	return &Reviver{
		cfg:           cfg,
		lv:            lv,
		be:            be,
		os:            os,
		freeHead:      noNode,
		pendVals:      make(map[uint64]pendingVal),
		orphans:       make(map[uint64]struct{}),
		shadowPerPage: shadow,
	}, nil
}

// Name implements mc.Protector.
func (r *Reviver) Name() string { return "WL-Reviver" }

// Stats returns a copy of the activity counters.
func (r *Reviver) Stats() Stats { return r.st }

// RequestCounts implements mc.Protector.
func (r *Reviver) RequestCounts() (requests, accesses uint64) {
	return r.st.SoftwareWrites + r.st.SoftwareReads, r.st.RequestAccesses
}

// AvailableSpares returns the number of unlinked reserved PAs.
func (r *Reviver) AvailableSpares() int { return r.spares }

// LinkedFailures returns the number of failed blocks currently linked to
// virtual shadows.
func (r *Reviver) LinkedFailures() int { return r.linked }

// HasPending reports whether a wear-leveling delivery is suspended.
func (r *Reviver) HasPending() bool { return len(r.pending) > 0 }

// ---- arena indexes --------------------------------------------------------

// arenaIndex looks key up in a dense index (daIdx or paIdx), returning
// the arena index it holds, if any. A nil index holds nothing.
func arenaIndex(index []uint32, key uint64) (uint32, bool) {
	if key >= uint64(len(index)) {
		return 0, false
	}
	i := index[key]
	return i - 1, i != 0
}

// setLink records da's virtual shadow as the node at idx.
func (r *Reviver) setLink(idx uint32, da uint64) {
	r.nodes[idx].da = da
	r.daIdx[da] = idx + 1
}

// ---- spare-PA management -------------------------------------------------

// takePA hands out an unlinked reserved PA whose effective (post-update)
// mapping target is neither cur nor already on the walked path. Exclusion
// prevents two degenerate links: a PA mapping straight back to the block
// being linked (a data-less loop while data still needs storing), and a
// PA mapping into a block already on the chain being walked (which would
// close a pointer cycle). The free list runs newest-acquisition-first;
// skipped nodes stay threaded in place, so the scan order matches the
// paper's register-pair intent. The exclusion is passed as explicit walk
// state rather than a closure so the per-write delivery path performs no
// allocations. It returns the taken node's arena index.
func (r *Reviver) takePA(path []chainLink, cur uint64, rm remap) (uint32, bool) {
	prev := noNode
	for idx := r.freeHead; idx != noNode; idx = r.nodes[idx].next {
		if onWalk(path, cur, rm.mapPA(r, r.nodes[idx].pa)) {
			prev = idx
			continue
		}
		if prev == noNode {
			r.freeHead = r.nodes[idx].next
		} else {
			r.nodes[prev].next = r.nodes[idx].next
		}
		r.nodes[idx].next = noNode
		r.spares--
		return idx, true
	}
	return noNode, false
}

// pushSpare returns a node to the head of the spare free list.
func (r *Reviver) pushSpare(idx uint32) {
	r.nodes[idx].next = r.freeHead
	r.freeHead = idx
	r.spares++
}

// onWalk reports whether da is the walk's current block or a block
// already on the walked path.
func onWalk(path []chainLink, cur, da uint64) bool {
	if da == cur {
		return true
	}
	for _, l := range path {
		if l.da == da {
			return true
		}
	}
	return false
}

// link records da's virtual shadow: the PA pointer is written into the
// failed block itself (readable thanks to strong in-block coding, as in
// FREE-p), and the inverse pointer is written into the block
// mapped by the PA's pointer-section slot. idx must have come from
// takePA (off the free list).
func (r *Reviver) link(da uint64, idx uint32) {
	delete(r.orphans, da)
	r.setLink(idx, da)
	r.linked++
	r.writeInv(idx)
	r.be.Dev.Write(pcmBlock(da)) // pointer write into the failed block
	r.st.MaintenanceAccesses++
	r.st.LinksCreated++
	if r.cfg.RemapCache != nil {
		r.cfg.RemapCache.Invalidate(da)
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer.Event(obs.Event{Kind: obs.Revived, A: da, B: r.nodes[idx].pa})
	}
}

// writeInv models rewriting the inverse pointer of the shadow at idx,
// wearing the pointer block that stores it. Inverse-pointer blocks are
// not themselves failure-protected: the paper notes they are written
// rarely and can be rebuilt by a full PCM scan if lost, so the logical
// mapping (the arena) is kept authoritative here.
func (r *Reviver) writeInv(idx uint32) {
	if slot := r.nodes[idx].slot; slot != noSlot {
		r.be.Dev.Write(pcmBlock(r.lv.Map(slot)))
		r.st.MaintenanceAccesses++
	}
}

// acquirePage reports an access failure at reportPA to the OS, which
// retires the surrounding page and relocates its live data to a donor
// page (the recovery the paper's §III-A relies on). The page's PAs are
// split per Fig. 4: the first shadowPerPage become spare virtual shadows,
// the rest address the blocks that will store their inverse pointers.
//
// The recovery copies are performed here, in exception-handling order:
// the page's data is snapshotted before any of its blocks can be reused
// as shadow storage, then delivered to the donor page. The copies
// actually performed are recorded in r.relocs for LastRelocations. A
// block whose data was already lost (the genuinely failed block being
// written) naturally drops out because its chain holds no data.
func (r *Reviver) acquirePage(reportPA uint64) {
	pas, relocs := r.os.ReportFailure(reportPA)
	type saved struct {
		rc  osmodel.Relocation
		tag uint64
	}
	toCopy := make([]saved, 0, len(relocs))
	for _, rc := range relocs {
		tag, has, acc := r.readEffective(r.lv.Map(rc.OldPA))
		r.st.MaintenanceAccesses += acc
		if has {
			toCopy = append(toCopy, saved{rc: rc, tag: tag})
		}
	}
	if r.paIdx == nil {
		r.daIdx = make([]uint32, r.lv.NumDAs())
		r.paIdx = make([]uint32, r.lv.NumPAs())
	}
	shadow := pas[:r.shadowPerPage]
	slots := pas[r.shadowPerPage:]
	perBlock := uint64(r.be.Dev.Config().BlockBytes / r.cfg.PointerBytes)
	for i, p := range shadow {
		slot := noSlot
		if len(slots) > 0 {
			slot = slots[uint64(i)/perBlock]
		}
		idx := uint32(len(r.nodes))
		r.nodes = append(r.nodes, shadowNode{pa: p, da: noDA, slot: slot, next: noNode})
		r.paIdx[p] = idx + 1
		r.pushSpare(idx)
	}
	r.relocs = r.relocs[:0]
	for _, s := range toCopy {
		acc, needPA, _ := r.deliver(r.lv.Map(s.rc.NewPA), s.tag, chainLink{}, false, remap{}, true, true)
		r.st.MaintenanceAccesses += acc
		if needPA {
			// Even the fresh page could not supply a spare for the copy
			// target's chain; the OS would log an unrecoverable block.
			r.st.RelocationsDropped++
			continue
		}
		r.relocs = append(r.relocs, s.rc)
	}
	r.st.PagesAcquired++
	r.sweepOrphans()
}

// sweepOrphans restores Theorem 2 after an acquisition: every dead block
// left unlinked by a spare-starved walk is linked now that fresh spares
// exist (best-effort; a block is re-orphaned if spares run out again).
// The sweep runs in ascending-DA order: each relink consumes spares and
// wears blocks, so an unordered map walk here would let two identical
// runs diverge.
func (r *Reviver) sweepOrphans() {
	if len(r.orphans) == 0 {
		return
	}
	das := make([]uint64, 0, len(r.orphans))
	for da := range r.orphans {
		das = append(das, da)
	}
	slices.Sort(das)
	for _, da := range das {
		if !r.be.Dead(da) {
			delete(r.orphans, da)
			continue
		}
		if _, linked := arenaIndex(r.daIdx, da); linked {
			delete(r.orphans, da)
			continue
		}
		if _, suspended := r.pendVals[da]; suspended {
			// A suspended delivery targets this block: its data sits in
			// the migration buffer and its pendingOp carries the correct
			// chain head. Relinking it here with a data-less walk would
			// let reduce rewire the head onto storage that never receives
			// the buffered data; resume() relinks it properly instead.
			continue
		}
		headPA, okHead := r.lv.Inverse(da)
		head, hasHead := r.chainHead(headPA, okHead, da)
		acc, _, _ := r.deliver(da, 0, head, hasHead, remap{}, false, false)
		r.st.MaintenanceAccesses += acc
	}
}

// ---- chain walking -------------------------------------------------------

// walkLimit bounds chain walks in introspection helpers; the delivery
// walk itself is bounded by the DA-space size (a chain can legitimately
// thread many dead blocks in a heavily degraded chip before reduction
// collapses it, but it can never revisit one).
const walkLimit = 64

// remap overlays the in-flight mapping update onto the leveler's current
// (pre-update) mapping. Mover calls arrive before the scheme commits its
// update (see wear.Mover), but deliveries must place data where the
// post-update mapping will look for it; the overlay covers the one or
// two PAs whose targets are changing.
type remap struct {
	pa1, da1 uint64
	pa2, da2 uint64
	n        uint8
}

// mapPA resolves p under the post-update mapping.
func (m remap) mapPA(r *Reviver, p uint64) uint64 {
	if m.n > 0 && p == m.pa1 {
		return m.da1
	}
	if m.n > 1 && p == m.pa2 {
		return m.da2
	}
	return r.lv.Map(p)
}

// deliver writes tag into the storage reachable through entry — the
// single fundamental operation the framework performs on behalf of both
// software writes and wear-leveling migrations. It walks the chain from
// entry, linking any newly failed blocks it encounters, writes the data
// into the first healthy block (when doWrite is set), and then reduces
// the walked chain to one step by switching virtual shadows.
//
// head, when hasHead is set, seeds the walk with a chain element *above*
// entry: the failed block whose virtual shadow will map to entry once
// the in-flight mapping update lands (scenario 2, Fig. 3). The walk is
// recorded in the Reviver's reusable buffer, so deliveries never
// allocate once it has grown.
//
// needPA is returned when a link was needed but no spare PA exists; in
// that case no data was written and the caller must suspend. stopDA is
// then the block the walk starved at: the pre-return reduce() has
// already rewired the walked chain one hop from that block, so a
// suspension must target stopDA (via retarget), not the original entry
// — which may now sit on a dataless loop.
func (r *Reviver) deliver(entry, tag uint64, head chainLink, hasHead bool, rm remap, doWrite, hasData bool) (accesses uint64, needPA bool, stopDA uint64) {
	if doWrite && hasData && len(r.pendVals) > 0 {
		if _, suspended := r.pendVals[entry]; suspended {
			// A suspended delivery already targets this entry; writing
			// around it would be undone when it resumes with its stale
			// buffer. Supersede the buffered value instead — the
			// suspended op places the new data when spares allow, and
			// reads see it through the buffer meanwhile. (resume itself
			// clears the buffer before delivering, so it never lands
			// here.)
			r.pendVals[entry] = pendingVal{tag: tag, has: true}
			for i := range r.pending {
				if r.pending[i].entry == entry {
					r.pending[i].tag = tag
					r.pending[i].has = true
					break
				}
			}
			return 0, false, entry
		}
	}
	path := r.walk[:0]
	if hasHead {
		path = append(path, head)
	}
	cur := entry
	limit := int(r.lv.NumDAs()) + 8
	for steps := 0; ; steps++ {
		if steps > limit {
			panic(fmt.Sprintf("reviver: chain walk from DA %d exceeded %d steps; invariant broken", entry, limit))
		}
		if !r.be.Dead(cur) {
			if doWrite && hasData {
				accesses++
				if !r.be.WriteRaw(cur) {
					// The block died under this very write (Fig. 2c).
					var ok bool
					if path, cur, ok = r.freshLink(path, cur, rm); !ok {
						r.starve(path, cur)
						return accesses, true, cur
					}
					continue
				}
				if r.be.Dev.TracksContent() {
					r.be.Dev.SetContent(pcmBlock(cur), tag)
				}
			}
			break
		}
		// Dead block: follow (or create) its virtual shadow link.
		idx, linked := arenaIndex(r.daIdx, cur)
		var next uint64
		if linked {
			next = rm.mapPA(r, r.nodes[idx].pa)
		}
		if linked && onWalk(path, cur, next) {
			// Following the existing link would close a cycle: either the
			// block sits on a PA-DA loop that data now needs to flow
			// through, or the link points back into the walked chain.
			// Recycle the virtual shadow into the spare pool and relink
			// the block afresh.
			r.nodes[idx].da = noDA
			r.daIdx[cur] = 0
			r.linked--
			r.pushSpare(idx)
			linked = false
		}
		if !linked {
			var ok bool
			if path, cur, ok = r.freshLink(path, cur, rm); !ok {
				r.starve(path, cur)
				return accesses, true, cur
			}
			continue
		}
		// Reading the in-block pointer costs one access unless the
		// remap cache holds it.
		if r.cfg.RemapCache == nil || !r.cfg.RemapCache.Lookup(cur) {
			r.be.ReadRaw(cur)
			accesses++
		}
		path = append(path, chainLink{da: cur, via: idx})
		cur = next
	}
	r.reduce(path)
	r.walk = path[:0]
	return accesses, false, entry
}

// starve ends a delivery whose walk found no spare PA for cur: cur is
// left as an orphan for the next acquisition's sweep, and what was
// walked so far is shortened.
func (r *Reviver) starve(path []chainLink, cur uint64) {
	r.orphans[cur] = struct{}{}
	r.reduce(path)
	r.walk = path[:0]
}

// retarget redirects a starved delivery to the walk's starvation point.
// deliver has already reduced the walked chain one hop from stopDA, so
// resuming at the original entry would place the data on a detached
// loop. When the target moves, the head is re-derived from the mapping:
// the PA mapping to stopDA now threads it from the rewired chain head.
func (r *Reviver) retarget(stopDA, entry uint64, headPA uint64, hasHead bool) (uint64, uint64, bool) {
	if stopDA == entry {
		return entry, headPA, hasHead
	}
	p, ok := r.lv.Inverse(stopDA)
	return stopDA, p, ok
}

// freshLink links cur to a spare PA (judged under the effective
// post-update mapping), extending the walk through it. It returns the
// grown path and the new cursor; ok is false when the spare pool is
// starved, leaving path and cur unchanged.
func (r *Reviver) freshLink(path []chainLink, cur uint64, rm remap) ([]chainLink, uint64, bool) {
	idx, ok := r.takePA(path, cur, rm)
	if !ok {
		return path, cur, false
	}
	r.link(cur, idx)
	path = append(path, chainLink{da: cur, via: idx})
	return path, rm.mapPA(r, r.nodes[idx].pa), true
}

// reduce collapses a walked multi-step chain to one step: the chain's
// first failed block adopts the last virtual shadow (one hop from the
// final storage), and every other failed block adopts its predecessor's
// virtual shadow, placing it on a data-less PA-DA loop (Figs. 2d, 3b).
func (r *Reviver) reduce(path []chainLink) {
	if len(path) < 2 || r.cfg.DisableChainReduction {
		return
	}
	last := path[len(path)-1].via
	r.rewritePtr(path[0].da, last)
	for i := 1; i < len(path); i++ {
		r.rewritePtr(path[i].da, path[i-1].via)
	}
	r.st.ChainSwitches++
}

// rewritePtr points da's virtual shadow at the node at idx, updating the
// in-block pointer, the inverse pointer, and the remap cache. Only
// reduce calls it, with a permutation of the walked path's (da, via)
// pairs, so every arena node touched here is reassigned exactly once and
// no stale daIdx entry survives the loop.
func (r *Reviver) rewritePtr(da uint64, idx uint32) {
	r.setLink(idx, da)
	r.writeInv(idx)
	r.be.Dev.Write(pcmBlock(da))
	r.st.MaintenanceAccesses++
	if r.cfg.RemapCache != nil {
		r.cfg.RemapCache.Invalidate(da)
	}
}

// readEffective walks the chain from da and reads the logical data
// stored for it. has is false when da is on a data-less PA-DA loop (or
// an unlinked failure being handled elsewhere).
func (r *Reviver) readEffective(da uint64) (tag uint64, has bool, accesses uint64) {
	cur := da
	suspended := len(r.pendVals) > 0
	for steps := 0; ; steps++ {
		if steps > walkLimit {
			panic(fmt.Sprintf("reviver: read walk from DA %d exceeded %d steps", da, walkLimit))
		}
		if suspended {
			if v, pending := r.pendVals[cur]; pending {
				// The data sits in the controller's suspended-migration
				// buffer. Checked at every step, not just the entry: a
				// chain may legitimately run through a block whose own
				// delivery is suspended (the head was walked before the
				// suspension).
				return v.tag, v.has, accesses
			}
		}
		if !r.be.Dead(cur) {
			r.be.ReadRaw(cur)
			accesses++
			return r.be.Dev.Content(pcmBlock(cur)), true, accesses
		}
		idx, linked := arenaIndex(r.daIdx, cur)
		if !linked {
			return 0, false, accesses // unlinked failure: no stored data
		}
		next := r.lv.Map(r.nodes[idx].pa)
		if next == cur {
			return 0, false, accesses // PA-DA loop: no data behind it
		}
		if r.cfg.RemapCache == nil || !r.cfg.RemapCache.Lookup(cur) {
			r.be.ReadRaw(cur)
			accesses++
		}
		cur = next
	}
}

// chainHead returns the head link for a delivery whose entry will, after
// the in-flight mapping update, be mapped by headPA — when headPA is
// some failed block's virtual shadow, that block's chain now runs
// through the entry and must join the reduction. A head equal to the
// entry itself (the entry's own shadow is remapping onto it) is omitted:
// the walk's loop-recycling handles that case directly.
func (r *Reviver) chainHead(headPA uint64, ok bool, entry uint64) (chainLink, bool) {
	if !ok {
		return chainLink{}, false
	}
	idx, isShadow := arenaIndex(r.paIdx, headPA)
	if !isShadow {
		return chainLink{}, false
	}
	d := r.nodes[idx].da
	if d == noDA || d == entry || !r.be.Dead(d) {
		return chainLink{}, false
	}
	return chainLink{da: d, via: idx}, true
}

// ---- mc.Protector: software request path ----------------------------------

// Write implements mc.Protector. See package comment for the sacrifice
// protocol when a suspended migration is waiting for spare space.
func (r *Reviver) Write(pa, tag uint64) mc.WriteResult {
	r.st.SoftwareWrites++
	r.relocs = r.relocs[:0]
	if len(r.pending) > 0 {
		if r.spares > 0 {
			r.resume()
		}
		if len(r.pending) > 0 {
			// Sacrifice this write: report it to the OS as failed even
			// though it may not be (§III-A). The OS retires the page and
			// redirects the write to an alternative location; the caller
			// retries at the new translation.
			r.acquirePage(pa)
			r.st.SacrificedWrites++
			return mc.WriteResult{Retry: true}
		}
	}
	r.lastWritePA = pa
	r.lastWriteOK = true
	da := r.lv.Map(pa)
	var accesses uint64
	if len(r.pendVals) == 0 && !r.be.Dead(da) {
		// Healthy block, nothing buffered: the chain is empty, so the
		// write is one raw access with no walk (§III: only failed blocks
		// pay for revival).
		if r.be.WriteRaw(da) {
			if r.be.Dev.TracksContent() {
				r.be.Dev.SetContent(pcmBlock(da), tag)
			}
			r.st.RequestAccesses++
			return mc.WriteResult{Accesses: 1}
		}
		// The block died under this write (Fig. 2c). deliver links it
		// afresh; the failed attempt already cost one access.
		accesses = 1
	}
	acc, needPA, _ := r.deliver(da, tag, chainLink{}, false, remap{}, true, true)
	accesses += acc
	r.st.RequestAccesses += accesses
	if needPA {
		// A genuine write failure with the spare pool empty: report it.
		r.acquirePage(pa)
		return mc.WriteResult{Accesses: accesses, Retry: true}
	}
	return mc.WriteResult{Accesses: accesses}
}

// LastRelocations returns the OS recovery copies (data moved OldPA ->
// NewPA) that the most recent Write performed when it retired a page and
// returned Retry. It is empty after a Write that retired no page. The
// copies are informational for address bookkeeping — callers must not
// replay them — and the slice is reused by the next Write.
func (r *Reviver) LastRelocations() []osmodel.Relocation { return r.relocs }

// Read implements mc.Protector.
func (r *Reviver) Read(pa uint64) (uint64, uint64) {
	r.st.SoftwareReads++
	tag, _, accesses := r.readEffective(r.lv.Map(pa))
	r.st.RequestAccesses += accesses
	return tag, accesses
}

// ResumePending implements mc.Protector.
func (r *Reviver) ResumePending() uint64 {
	if len(r.pending) == 0 || r.spares == 0 {
		return 0
	}
	return r.resume()
}

// resume retries suspended deliveries in order until they complete or
// spare PAs run out again.
func (r *Reviver) resume() uint64 {
	var total uint64
	for len(r.pending) > 0 {
		op := r.pending[0]
		// Clear the buffer first: deliver treats a buffered entry as "a
		// suspended op owns this" and would supersede instead of writing.
		delete(r.pendVals, op.entry)
		head, okHead := r.chainHead(op.headPA, op.hasHead, op.entry)
		accesses, needPA, stop := r.deliver(op.entry, op.tag, head, okHead, remap{}, true, op.has)
		total += accesses
		if needPA {
			// Still starved: the failed walk may have rewired the chain
			// again, so re-aim the op at the new starvation point and
			// restore the buffer there so reads stay consistent until
			// the next sacrifice frees spares.
			e, h, ok := r.retarget(stop, op.entry, op.headPA, op.hasHead)
			r.pending[0].entry, r.pending[0].headPA, r.pending[0].hasHead = e, h, ok
			r.pendVals[e] = pendingVal{tag: op.tag, has: op.has}
			break
		}
		r.pending = r.pending[1:]
	}
	r.st.MaintenanceAccesses += total
	return total
}

// suspend parks a delivery until spare space arrives, buffering its data
// so reads stay consistent (the paper suspends the whole migration in
// the controller; buffering the one moved block is the simulation
// equivalent — observable behaviour is identical). Under the
// ImmediateAcquisition ablation it instead interrupts the OS right away
// and completes the delivery.
func (r *Reviver) suspend(entry, tag uint64, has bool, headPA uint64, hasHead bool) {
	if r.cfg.ImmediateAcquisition && r.lastWriteOK && !r.os.Retired(r.lastWritePA) {
		r.acquirePage(r.lastWritePA)
		r.lastWriteOK = false
		head, okHead := r.chainHead(headPA, hasHead, entry)
		accesses, needPA, stop := r.deliver(entry, tag, head, okHead, remap{}, true, has)
		r.st.MaintenanceAccesses += accesses
		if !needPA {
			return
		}
		// Even the fresh page could not finish it; fall through to the
		// regular suspension, aimed at where this walk starved.
		entry, headPA, hasHead = r.retarget(stop, entry, headPA, hasHead)
	}
	r.pending = append(r.pending, pendingOp{
		entry: entry, tag: tag, has: has, headPA: headPA, hasHead: hasHead,
	})
	r.pendVals[entry] = pendingVal{tag: tag, has: has}
	r.st.Suspensions++
}

// ---- wear.Mover: migration path -------------------------------------------

// Migrate implements wear.Mover: the wear-leveling scheme moves the block
// of data at src into dst (about to become the mapping target of src's
// current PA). Failures along dst's chain are hidden; if hiding needs a
// spare PA and none exists, the delivery is suspended per §III-A.
func (r *Reviver) Migrate(src, dst uint64) {
	headPA, okHead := r.lv.Inverse(src) // post-update, headPA maps to dst
	tag, has, accesses := r.readEffective(src)
	r.st.MaintenanceAccesses += accesses
	if len(r.pending) > 0 {
		// An earlier operation is already waiting; queue behind it to
		// preserve order.
		r.suspend(dst, tag, has, headPA, okHead)
		return
	}
	rm := remap{}
	if okHead {
		rm = remap{pa1: headPA, da1: dst, n: 1}
	}
	head, hasHead := r.chainHead(headPA, okHead, dst)
	accesses, needPA, stop := r.deliver(dst, tag, head, hasHead, rm, true, has)
	r.st.MaintenanceAccesses += accesses
	if needPA {
		e, h, ok := r.retarget(stop, dst, headPA, okHead)
		r.suspend(e, tag, has, h, ok)
	}
}

// Swap implements wear.Mover: the scheme exchanges the data at a and b
// (Security Refresh's fundamental operation). Each direction is one
// delivery with its own chain head.
func (r *Reviver) Swap(a, b uint64) {
	if a == b {
		return
	}
	raPA, okA := r.lv.Inverse(a) // post-update, raPA maps to b
	rbPA, okB := r.lv.Inverse(b) // post-update, rbPA maps to a
	tagA, hasA, acc1 := r.readEffective(a)
	tagB, hasB, acc2 := r.readEffective(b)
	r.st.MaintenanceAccesses += acc1 + acc2
	rm := remap{}
	if okA {
		rm = remap{pa1: raPA, da1: b, n: 1}
	}
	if okB {
		rm.pa2, rm.da2 = rbPA, a
		rm.n++
		if !okA {
			rm.pa1, rm.da1, rm.pa2, rm.da2 = rbPA, a, 0, 0
		}
	}
	r.deliverOrSuspend(b, tagA, hasA, raPA, okA, rm)
	r.deliverOrSuspend(a, tagB, hasB, rbPA, okB, rm)
}

// deliverOrSuspend performs one delivery, suspending on PA starvation.
func (r *Reviver) deliverOrSuspend(entry, tag uint64, has bool, headPA uint64, hasHead bool, rm remap) {
	if len(r.pending) > 0 {
		r.suspend(entry, tag, has, headPA, hasHead)
		return
	}
	head, okHead := r.chainHead(headPA, hasHead, entry)
	accesses, needPA, stop := r.deliver(entry, tag, head, okHead, rm, true, has)
	r.st.MaintenanceAccesses += accesses
	if needPA {
		e, h, ok := r.retarget(stop, entry, headPA, hasHead)
		r.suspend(e, tag, has, h, ok)
	}
}

// ---- introspection for tests and invariant checking -----------------------

// ShadowPA returns da's virtual shadow PA, if linked.
func (r *Reviver) ShadowPA(da uint64) (uint64, bool) {
	idx, ok := arenaIndex(r.daIdx, da)
	if !ok {
		return 0, false
	}
	return r.nodes[idx].pa, true
}

// InversePointer returns the failed DA recorded for virtual shadow PA p.
// Spare shadows record no DA.
func (r *Reviver) InversePointer(p uint64) (uint64, bool) {
	idx, ok := arenaIndex(r.paIdx, p)
	if !ok || r.nodes[idx].da == noDA {
		return 0, false
	}
	return r.nodes[idx].da, true
}

// OnLoop reports whether da sits on a PA-DA loop (its virtual shadow
// maps straight back to it).
func (r *Reviver) OnLoop(da uint64) bool {
	idx, ok := arenaIndex(r.daIdx, da)
	return ok && r.lv.Map(r.nodes[idx].pa) == da
}

// ChainSteps returns the number of DA→PA→DA steps from da to its current
// storage block, and whether the walk ends at a healthy block. Loops
// report (1, false).
func (r *Reviver) ChainSteps(da uint64) (int, bool) {
	cur := da
	for steps := 0; steps <= walkLimit; steps++ {
		if !r.be.Dead(cur) {
			return steps, true
		}
		idx, ok := arenaIndex(r.daIdx, cur)
		if !ok {
			return steps, false
		}
		next := r.lv.Map(r.nodes[idx].pa)
		if next == cur {
			return steps + 1, false
		}
		cur = next
	}
	return walkLimit, false
}

// SparePAs returns the spare pool's PAs in free-list order (the next one
// handed out first), for tests and invariant checks.
func (r *Reviver) SparePAs() []uint64 {
	out := make([]uint64, 0, r.spares)
	for idx := r.freeHead; idx != noNode; idx = r.nodes[idx].next {
		out = append(out, r.nodes[idx].pa)
	}
	return out
}

// LinkedDAs returns the currently linked failed DAs in ascending order,
// for tests and invariant checks.
func (r *Reviver) LinkedDAs() []uint64 {
	out := make([]uint64, 0, r.linked)
	for _, n := range r.nodes {
		if n.da != noDA {
			out = append(out, n.da)
		}
	}
	slices.Sort(out)
	return out
}

func pcmBlock(da uint64) pcmBlockID { return pcmBlockID(da) }

// SoftwareUsableFraction implements mc.SpaceReporter: the fraction of
// pages the OS can still hand to software. WL-Reviver loses exactly one
// page per acquisition and nothing else.
func (r *Reviver) SoftwareUsableFraction() float64 {
	return r.os.UsableFraction()
}
