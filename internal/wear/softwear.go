package wear

import (
	"fmt"

	"wlreviver/internal/obs"
	"wlreviver/internal/osmodel"
)

// SoftWearConfig configures a SoftWear leveler.
type SoftWearConfig struct {
	// NumPAs is the number of software-visible blocks; relocations are
	// swaps, so the scheme uses exactly NumPAs device blocks.
	NumPAs uint64
	// PageBlocks is the relocation granularity in blocks — the OS page
	// size. Must divide NumPAs.
	PageBlocks uint64
	// EpochWrites is the leveling epoch length: once per this many total
	// writes the policy relocates the epoch's hottest page onto the
	// least-worn frame.
	EpochWrites uint64
}

// SoftWear implements SoftWear-style software-only wear leveling
// (arXiv:2004.03244): the OS counts writes per virtual page in software,
// and at every epoch boundary relocates the epoch's hottest page onto the
// frame with the lowest cumulative software wear estimate, updating the
// page table (osmodel.PageTable) rather than any hardware decoder. There
// are no hardware counters and no RNG on the hot path — ties break to the
// lowest index, so the policy is deterministic from the write stream
// alone. Relocations are page-sized swaps (NumDAs == NumPAs).
type SoftWear struct {
	n          uint64 // ckpt:skip construction-time PA-space size, validated on restore
	pageBlocks uint64 // ckpt:skip construction-time page size, fingerprinted by the engine
	period     uint64 // ckpt:skip construction-time epoch length, fingerprinted by the engine
	pt         *osmodel.PageTable
	counts     []uint32 // per-vpage writes this epoch
	est        []uint64 // per-frame cumulative software wear estimate
	epochW     uint64   // writes since last epoch boundary
	relocs     uint64

	// In-flight relocation cursor: a page relocation is pageBlocks
	// block-pair swaps, and the mapping must advance pair by pair — each
	// Mover call observes the pre-update mapping of ITS pair and the
	// post-update mapping of every earlier pair (the wear.Mover contract;
	// WL-Reviver's chain walks depend on it). The cursor lives only inside
	// one NoteWrite call, so it is never checkpointed.
	relocActive bool   // ckpt:skip transient within one NoteWrite call
	relocA      uint64 // ckpt:skip transient within one NoteWrite call
	relocB      uint64 // ckpt:skip transient within one NoteWrite call
	relocProg   uint64 // ckpt:skip transient within one NoteWrite call

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; PageRelocated probe
}

// NewSoftWear builds the scheme.
func NewSoftWear(cfg SoftWearConfig) (*SoftWear, error) {
	if cfg.NumPAs == 0 {
		return nil, fmt.Errorf("wear: softwear needs a non-empty PA space")
	}
	if cfg.PageBlocks == 0 || cfg.NumPAs%cfg.PageBlocks != 0 {
		return nil, fmt.Errorf("wear: softwear page size %d must divide the PA space %d", cfg.PageBlocks, cfg.NumPAs)
	}
	if cfg.EpochWrites == 0 {
		return nil, fmt.Errorf("wear: softwear EpochWrites must be positive")
	}
	numPages := cfg.NumPAs / cfg.PageBlocks
	pt, err := osmodel.NewPageTable(numPages)
	if err != nil {
		return nil, err
	}
	return &SoftWear{
		n:          cfg.NumPAs,
		pageBlocks: cfg.PageBlocks,
		period:     cfg.EpochWrites,
		pt:         pt,
		counts:     make([]uint32, numPages),
		est:        make([]uint64, numPages),
	}, nil
}

// Name implements Leveler.
func (s *SoftWear) Name() string { return "SoftWear" }

// NumPAs implements Leveler.
func (s *SoftWear) NumPAs() uint64 { return s.n }

// NumDAs implements Leveler. Relocations are swaps: no spare blocks.
func (s *SoftWear) NumDAs() uint64 { return s.n }

// Map implements Leveler.
func (s *SoftWear) Map(pa uint64) uint64 {
	if pa >= s.n {
		panic(fmt.Sprintf("wear: softwear PA %d out of range [0,%d)", pa, s.n))
	}
	v, off := pa/s.pageBlocks, pa%s.pageBlocks
	f := s.pt.Frame(v)
	if s.relocActive && off < s.relocProg {
		// Block pairs below the cursor have already exchanged frames.
		if v == s.relocA {
			f = s.pt.Frame(s.relocB)
		} else if v == s.relocB {
			f = s.pt.Frame(s.relocA)
		}
	}
	return f*s.pageBlocks + off
}

// Inverse implements Leveler. All DAs are mapped (ok is always true).
func (s *SoftWear) Inverse(da uint64) (uint64, bool) {
	if da >= s.n {
		panic(fmt.Sprintf("wear: softwear DA %d out of range [0,%d)", da, s.n))
	}
	f, off := da/s.pageBlocks, da%s.pageBlocks
	v := s.pt.PageAt(f)
	if s.relocActive && off < s.relocProg {
		if v == s.relocA {
			v = s.relocB
		} else if v == s.relocB {
			v = s.relocA
		}
	}
	return v*s.pageBlocks + off, true
}

// NoteWrite implements Leveler: count the write in software, and at every
// epoch boundary relocate the hottest page onto the least-worn frame.
func (s *SoftWear) NoteWrite(pa uint64, mover Mover) {
	if pa >= s.n {
		panic(fmt.Sprintf("wear: softwear PA %d out of range [0,%d)", pa, s.n))
	}
	v := pa / s.pageBlocks
	s.counts[v]++
	s.est[s.pt.Frame(v)]++
	s.epochW++
	if s.epochW < s.period {
		return
	}
	s.epochW = 0
	s.rebalance(mover)
}

// rebalance performs one epoch's relocation decision and resets the
// per-page epoch counters.
func (s *SoftWear) rebalance(mover Mover) {
	hot, cold := uint64(0), uint64(0)
	for v := uint64(1); v < uint64(len(s.counts)); v++ {
		if s.counts[v] > s.counts[hot] {
			hot = v
		}
	}
	for f := uint64(1); f < uint64(len(s.est)); f++ {
		if s.est[f] < s.est[cold] {
			cold = f
		}
	}
	if oldFrame := s.pt.Frame(hot); oldFrame != cold {
		// Each block pair's data moves BEFORE its mapping flips (the
		// wear.Mover contract): the relocation cursor advances the mapping
		// pair by pair as the swaps land, then the page table commits the
		// whole exchange.
		s.relocActive, s.relocA, s.relocB, s.relocProg = true, hot, s.pt.PageAt(cold), 0
		for i := uint64(0); i < s.pageBlocks; i++ {
			mover.Swap(oldFrame*s.pageBlocks+i, cold*s.pageBlocks+i)
			s.relocProg = i + 1
		}
		s.relocActive = false
		s.pt.Swap(s.relocA, s.relocB)
		s.relocs++
		if s.observer != nil {
			s.observer.Event(obs.Event{Kind: obs.PageRelocated, A: oldFrame, B: cold})
		}
	}
	for v := range s.counts {
		s.counts[v] = 0
	}
}

// SetObserver attaches an event observer (nil detaches). PageRelocated
// fires once per epoch relocation with the frames exchanged.
func (s *SoftWear) SetObserver(o obs.Observer) { s.observer = o }

// Relocations returns the number of page relocations performed.
func (s *SoftWear) Relocations() uint64 { return s.relocs }

var _ Leveler = (*SoftWear)(nil)
