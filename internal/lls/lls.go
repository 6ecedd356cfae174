// Package lls implements the LLS baseline (Jiang et al., ACM TACO 2013:
// "Hardware-Assisted Cooperative Integration of Wear-Leveling and
// Salvaging for Phase Change Memory"), as characterised in the paper's
// §II and evaluated in its Figure 8 and Table II.
//
// LLS lets wear leveling continue across failures by remapping failed
// blocks to backup blocks in a reserved region that it grows in large
// chunks (64 MB in the original; scaled here), taken from the software's
// address space with OS support. Four design traits — all criticised by
// the WL-Reviver paper — are modelled:
//
//  1. Chunked reservation with OS-driven data relocation: each expansion
//     retires a whole chunk of pages and copies their data elsewhere.
//  2. Order-matched backups inside salvaging groups: the i-th failed
//     block of a group maps to the group's i-th live backup, so a new
//     failure in the middle shifts the data of every later failed block
//     (expensive block insertions).
//  3. A bitmap consulted on every access to a remapped block (a third
//     PCM access unless cached).
//  4. A restricted Start-Gap randomizer (first half of PAs maps into the
//     second half of randomized PAs and vice versa) so the mapping stays
//     compatible with half-space reservations — which weakens leveling
//     under skewed writes (the package provides RestrictedRandomizer).
//
// Because a salvaging group stripes across chunks, one hot group forces
// a new chunk while other groups still hold idle backups — the usable-
// space inefficiency the paper reports.
package lls

import (
	"fmt"
	"sort"

	"wlreviver/internal/cache"
	"wlreviver/internal/mc"
	"wlreviver/internal/pcm"
	"wlreviver/internal/wear"

	"wlreviver/internal/osmodel"
)

// RestrictedRandomizer is the half-space address randomization LLS needs:
// addresses in the lower half scramble into the upper half and vice
// versa. It composes two half-size Feistel permutations.
type RestrictedRandomizer struct {
	n    uint64
	half uint64
	lo   *wear.Feistel // maps [0, n/2) -> offsets in the upper half
	hi   *wear.Feistel // maps [0, n/2) -> offsets in the lower half
}

// NewRestrictedRandomizer builds the permutation over [0, n); n must be
// even.
func NewRestrictedRandomizer(n uint64, seed uint64) (*RestrictedRandomizer, error) {
	if n == 0 || n%2 != 0 {
		return nil, fmt.Errorf("lls: restricted randomizer needs an even domain, got %d", n)
	}
	lo, err := wear.NewFeistel(n/2, 4, seed^0x10)
	if err != nil {
		return nil, err
	}
	hi, err := wear.NewFeistel(n/2, 4, seed^0x20)
	if err != nil {
		return nil, err
	}
	return &RestrictedRandomizer{n: n, half: n / 2, lo: lo, hi: hi}, nil
}

// Map implements wear.Randomizer.
func (r *RestrictedRandomizer) Map(x uint64) uint64 {
	if x < r.half {
		return r.half + r.lo.Map(x)
	}
	return r.hi.Map(x - r.half)
}

// Inverse implements wear.Randomizer.
func (r *RestrictedRandomizer) Inverse(y uint64) uint64 {
	if y >= r.half {
		return r.lo.Inverse(y - r.half)
	}
	return r.half + r.hi.Inverse(y)
}

// N implements wear.Randomizer.
func (r *RestrictedRandomizer) N() uint64 { return r.n }

var _ wear.Randomizer = (*RestrictedRandomizer)(nil)

// Config parameterises LLS.
type Config struct {
	// ChunkPages is the reservation granularity in OS pages.
	ChunkPages uint64
	// SalvageGroups is the number of salvaging groups blocks are striped
	// into (by DA modulo).
	SalvageGroups uint64
	// RemapCache, when non-nil, caches remapped blocks' backup locations
	// (removing the bitmap and pointer accesses on a hit).
	RemapCache *cache.Cache
}

// Stats counts LLS activity.
type Stats struct {
	SoftwareWrites  uint64
	SoftwareReads   uint64
	RequestAccesses uint64
	ChunksReserved  uint64
	ShiftWrites     uint64
	Failures        uint64
	Exposed         bool
}

// group holds one salvaging group's failure/backup bookkeeping.
type group struct {
	failed  []uint64 // failed data-region DAs, sorted (order matching)
	backups []uint64 // live backup DAs in fixed order; failed[i] uses backups[i]
}

// LLS is the baseline protector. Backup blocks occupy device blocks
// above the wear-leveling space (the capacity they represent is taken
// from the software space page-for-page when a chunk is reserved; see
// package comment and DESIGN.md for this accounting).
type LLS struct {
	cfg Config         // ckpt:skip construction-time config, fingerprinted by the engine
	lv  wear.Leveler   // ckpt:skip wiring; the leveler checkpoints itself
	be  *mc.Backend    // ckpt:skip wiring; the backend checkpoints itself
	os  *osmodel.Model // ckpt:skip wiring; the OS model checkpoints itself

	groups []group
	// pos is failed-list membership by data-region DA: da's index in its
	// group's failed list plus one, 0 when da has not failed. It turns
	// resolving a failed block into one load instead of a binary search.
	// A DA listed twice maps to its first entry, as the search did.
	// Allocated at the first failure.
	pos         []uint32 // ckpt:derived rebuilt from the groups' failed lists by LoadState
	chunkBlocks uint64   // ckpt:derived recomputed from cfg in New
	maxChunks   uint64   // ckpt:derived recomputed from cfg in New
	nextBackup  uint64   // next unallocated backup DA
	st          Stats
}

// New builds the protector. The device must provide backup capacity
// beyond lv.NumDAs(); every full chunk of it is usable.
func New(cfg Config, lv wear.Leveler, be *mc.Backend, os *osmodel.Model) (*LLS, error) {
	if cfg.ChunkPages == 0 {
		return nil, fmt.Errorf("lls: ChunkPages must be positive")
	}
	if cfg.SalvageGroups == 0 {
		return nil, fmt.Errorf("lls: SalvageGroups must be positive")
	}
	chunkBlocks := cfg.ChunkPages * os.BlocksPerPage()
	extra := be.Dev.NumBlocks() - min64(be.Dev.NumBlocks(), lv.NumDAs())
	maxChunks := extra / chunkBlocks
	if maxChunks == 0 {
		return nil, fmt.Errorf("lls: device provides no backup capacity (%d extra blocks, chunk is %d)",
			extra, chunkBlocks)
	}
	return &LLS{
		cfg:         cfg,
		lv:          lv,
		be:          be,
		os:          os,
		groups:      make([]group, cfg.SalvageGroups),
		chunkBlocks: chunkBlocks,
		maxChunks:   maxChunks,
		nextBackup:  lv.NumDAs(),
	}, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Name implements mc.Protector.
func (l *LLS) Name() string { return "LLS" }

// Stats returns a copy of the counters.
func (l *LLS) Stats() Stats { return l.st }

// RequestCounts implements mc.Protector.
func (l *LLS) RequestCounts() (requests, accesses uint64) {
	return l.st.SoftwareWrites + l.st.SoftwareReads, l.st.RequestAccesses
}

// Crippled implements mc.Crippler.
func (l *LLS) Crippled() bool { return l.st.Exposed }

// groupOf returns the salvaging group of a data-region DA.
func (l *LLS) groupOf(da uint64) *group {
	return &l.groups[da%l.cfg.SalvageGroups]
}

// backupIndex returns the order-matching index of da in its group, or -1.
func (l *LLS) backupIndex(da uint64) int {
	if l.pos == nil {
		return -1
	}
	return int(l.pos[da]) - 1
}

// effective resolves a data-region DA through the group bookkeeping,
// charging the failed-block probe and bitmap read unless cached. Only a
// block the backend has declared dead sits in a group's failed list
// (handleFailure runs after a write to it failed), so a healthy block
// resolves to itself without searching its group.
func (l *LLS) effective(da uint64) (uint64, uint64) {
	if !l.be.Dead(da) {
		return da, 0
	}
	i := l.backupIndex(da)
	if i < 0 {
		return da, 0
	}
	g := l.groupOf(da)
	if l.cfg.RemapCache != nil && l.cfg.RemapCache.Lookup(da) {
		return g.backups[i], 0
	}
	// One access to the failed block (detect/probe) and one to the
	// bitmap region to compute the backup location.
	l.be.ReadRaw(da)
	l.be.ReadRaw(g.backups[i])
	return g.backups[i], 2
}

// reserveChunk expands the backup region by one chunk, retiring
// ChunkPages of the software's top-most live pages (with the OS's data
// relocation) and striping the fresh backups across the groups. Returns
// false when no capacity remains.
func (l *LLS) reserveChunk() bool {
	if l.st.ChunksReserved == l.maxChunks {
		return false
	}
	if l.os.UsablePages() < l.cfg.ChunkPages {
		return false // software space exhausted
	}
	// Claim the chunk's backup range and stripe it into the groups
	// before touching the OS: the retirement below relocates data, and
	// those relocation writes can hit failures that need backups — the
	// fresh chunk must already be visible to them (and a reentrant
	// reservation must see updated counters).
	for i := uint64(0); i < l.chunkBlocks; i++ {
		da := l.nextBackup
		l.nextBackup++
		g := &l.groups[i%l.cfg.SalvageGroups]
		g.backups = append(g.backups, da)
	}
	l.st.ChunksReserved++
	pagesNeeded := l.cfg.ChunkPages
	bpp := l.os.BlocksPerPage()
	for p := int64(l.os.NumPages()) - 1; p >= 0 && pagesNeeded > 0; p-- {
		pa := uint64(p) * bpp
		if l.os.Retired(pa) {
			continue
		}
		_, relocs := l.os.ReportFailure(pa)
		for _, rc := range relocs {
			src, _ := l.effective(l.lv.Map(rc.OldPA))
			if l.be.Dead(src) {
				continue
			}
			l.be.ReadRaw(src)
			l.writeTo(l.lv.Map(rc.NewPA), l.be.Dev.Content(pcm.BlockID(src)))
		}
		pagesNeeded--
	}
	return true
}

// handleFailure registers a fresh failure of data-region DA da,
// reserving capacity and shifting later blocks' data as order matching
// requires. Returns false when LLS is out of options (exposed).
func (l *LLS) handleFailure(da uint64) bool {
	g := l.groupOf(da)
	for len(g.backups) <= len(g.failed) {
		if !l.reserveChunk() {
			l.st.Exposed = true
			return false
		}
	}
	if l.pos == nil {
		l.pos = make([]uint32, l.lv.NumDAs())
	}
	i := sort.Search(len(g.failed), func(i int) bool { return g.failed[i] >= da })
	g.failed = append(g.failed, 0)
	// Shifting from the end leaves a DA listed twice at its lower index.
	for k := len(g.failed) - 1; k > i; k-- {
		g.failed[k] = g.failed[k-1]
		l.pos[g.failed[k]] = uint32(k) + 1
	}
	g.failed[i] = da
	l.pos[da] = uint32(i) + 1
	l.st.Failures++
	if l.cfg.RemapCache != nil {
		l.cfg.RemapCache.Invalidate(da)
	}
	// Order matching: every failed block after the insertion point moves
	// its data one backup later.
	return l.reshift(g, i)
}

// dropBackup removes a dead backup from the group's live list.
func (l *LLS) dropBackup(g *group, j int) {
	g.backups = append(g.backups[:j], g.backups[j+1:]...)
}

// reshift re-establishes order matching for every failed block after
// index i: block failed[k] (k > i) has its data at backups[k-1] and must
// move it to backups[k]. Runs end-to-start so data is never clobbered;
// a backup dying mid-shift is dropped and the shift restarted (backups
// strictly decrease, so this terminates).
func (l *LLS) reshift(g *group, i int) bool {
	for len(g.backups) < len(g.failed) {
		if !l.reserveChunk() {
			l.st.Exposed = true
			return false
		}
	}
	for k := len(g.failed) - 1; k > i; k-- {
		src := g.backups[k-1]
		dst := g.backups[k]
		l.be.ReadRaw(src)
		l.st.ShiftWrites++
		if !l.be.WriteRaw(dst) {
			l.dropBackup(g, k)
			return l.reshift(g, i)
		}
		if l.be.Dev.TracksContent() {
			l.be.Dev.SetContent(pcm.BlockID(dst), l.be.Dev.Content(pcm.BlockID(src)))
		}
		if l.cfg.RemapCache != nil {
			l.cfg.RemapCache.Invalidate(g.failed[k])
		}
	}
	return true
}

// writeTo delivers a write to the storage behind data-region DA da.
func (l *LLS) writeTo(da, tag uint64) (uint64, bool) {
	target, accesses := l.effective(da)
	for attempt := 0; attempt < 64; attempt++ {
		accesses++
		if l.be.WriteRaw(target) {
			if l.be.Dev.TracksContent() {
				l.be.Dev.SetContent(pcm.BlockID(target), tag)
			}
			return accesses, true
		}
		if target == da {
			// A data block died: register the failure.
			if !l.handleFailure(da) {
				return accesses, false
			}
		} else {
			// The backup died under our write: drop it and restore order
			// matching for everything behind it (their data still sits
			// one backup lower). The dying block's own data is the tag
			// in hand, rewritten on the next attempt.
			g := l.groupOf(da)
			i := l.backupIndex(da)
			if i < 0 {
				return accesses, false
			}
			l.dropBackup(g, i)
			if !l.reshift(g, i) {
				return accesses, false
			}
			if l.cfg.RemapCache != nil {
				l.cfg.RemapCache.Invalidate(da)
			}
		}
		var acc uint64
		target, acc = l.effective(da)
		accesses += acc
	}
	l.st.Exposed = true
	return accesses, false
}

// Write implements mc.Protector. LLS reserves synchronously through the
// OS, so a write only fails when the whole chip is out of capacity.
func (l *LLS) Write(pa, tag uint64) mc.WriteResult {
	l.st.SoftwareWrites++
	accesses, ok := l.writeTo(l.lv.Map(pa), tag)
	l.st.RequestAccesses += accesses
	if !ok {
		return mc.WriteResult{Accesses: accesses, Retry: false}
	}
	return mc.WriteResult{Accesses: accesses}
}

// Read implements mc.Protector.
func (l *LLS) Read(pa uint64) (uint64, uint64) {
	l.st.SoftwareReads++
	target, accesses := l.effective(l.lv.Map(pa))
	l.be.ReadRaw(target)
	accesses++
	l.st.RequestAccesses += accesses
	if l.be.Dead(target) {
		return 0, accesses
	}
	return l.be.Dev.Content(pcm.BlockID(target)), accesses
}

// ResumePending implements mc.Protector: LLS never defers.
func (l *LLS) ResumePending() uint64 { return 0 }

// Migrate implements wear.Mover: backups sit outside the wear-leveling
// space, so resolution through the order matching commutes with
// migration.
func (l *LLS) Migrate(src, dst uint64) {
	esrc, _ := l.effective(src)
	if l.be.Dead(esrc) {
		return
	}
	l.be.ReadRaw(esrc)
	l.writeTo(dst, l.be.Dev.Content(pcm.BlockID(esrc)))
}

// Swap implements wear.Mover.
func (l *LLS) Swap(a, b uint64) {
	ea, _ := l.effective(a)
	eb, _ := l.effective(b)
	l.be.ReadRaw(ea)
	l.be.ReadRaw(eb)
	ta, tb := l.be.Dev.Content(pcm.BlockID(ea)), l.be.Dev.Content(pcm.BlockID(eb))
	deadA, deadB := l.be.Dead(ea), l.be.Dead(eb)
	if !deadB {
		l.writeTo(a, tb)
	}
	if !deadA {
		l.writeTo(b, ta)
	}
}

// SoftwareUsableFraction implements mc.SpaceReporter: pages not consumed
// by chunk reservations (LLS hides failures, so only reservations cost
// software space — in chunk-sized steps, Figure 8's staircase).
func (l *LLS) SoftwareUsableFraction() float64 {
	return l.os.UsableFraction()
}

var (
	_ mc.Protector     = (*LLS)(nil)
	_ mc.Crippler      = (*LLS)(nil)
	_ mc.SpaceReporter = (*LLS)(nil)
)
