package wear

import (
	"fmt"

	"wlreviver/internal/obs"
)

// StartGap implements the Start-Gap wear-leveling scheme (Qureshi et al.,
// MICRO'09), the representative scheme used throughout the paper's
// evaluation.
//
// The scheme manages N data blocks plus one gap block (NumDAs = N+1). Two
// registers, Start and Gap, define the algebraic mapping
//
//	pa' = R(pa)                       // static randomization
//	a   = (pa' + Start) mod N
//	da  = a      if a < Gap
//	da  = a + 1  otherwise
//
// Every GapWritePeriod writes (ψ, paper default 100) the gap moves one
// slot down by migrating the block above it into the gap; when the gap
// wraps around the top, Start advances, completing one rotation of the
// whole address space. Over N+1 gap movements every block of data visits
// a new device address, which evens wear even under adversarial write
// streams — provided the mapping keeps functioning, which is exactly what
// fails on the first block failure without WL-Reviver.
type StartGap struct {
	n      uint64 // ckpt:skip construction-time PA-space size, validated on restore
	start  uint64
	gap    uint64
	rand   Randomizer // ckpt:skip construction-time Feistel network, a pure function of the seed
	period uint64     // ckpt:skip construction-time ψ, fingerprinted by the engine
	writes uint64     // writes since last gap movement

	gapMoves uint64

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; GapMoved probe
}

// StartGapConfig configures a StartGap leveler.
type StartGapConfig struct {
	// NumPAs is the number of software-visible blocks N; the scheme uses
	// N+1 device blocks.
	NumPAs uint64
	// GapWritePeriod is ψ: one gap movement per ψ serviced writes.
	// The paper uses 100.
	GapWritePeriod uint64
	// Randomizer is the static address-space randomization layer. When
	// nil, a 4-round Feistel keyed by Seed is used. Pass Identity to
	// disable randomization (ablation).
	Randomizer Randomizer
	// Seed keys the default randomizer.
	Seed uint64
}

// NewStartGap builds the scheme.
func NewStartGap(cfg StartGapConfig) (*StartGap, error) {
	if cfg.NumPAs == 0 {
		return nil, fmt.Errorf("wear: start-gap needs a non-empty PA space")
	}
	if cfg.GapWritePeriod == 0 {
		return nil, fmt.Errorf("wear: start-gap GapWritePeriod must be positive")
	}
	r := cfg.Randomizer
	if r == nil {
		var err error
		r, err = NewFeistel(cfg.NumPAs, 4, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	if r.N() != cfg.NumPAs {
		return nil, fmt.Errorf("wear: randomizer domain %d != NumPAs %d", r.N(), cfg.NumPAs)
	}
	// The randomizer is static for the lifetime of the scheme, so its
	// permutation is flattened into a lookup table once here; the per-write
	// Map becomes one array load instead of multi-round Feistel hashing.
	r = Precompute(r)
	return &StartGap{
		n:      cfg.NumPAs,
		gap:    cfg.NumPAs, // gap starts at the top (block N)
		rand:   r,
		period: cfg.GapWritePeriod,
	}, nil
}

// Name implements Leveler.
func (s *StartGap) Name() string { return "Start-Gap" }

// NumPAs implements Leveler.
func (s *StartGap) NumPAs() uint64 { return s.n }

// NumDAs implements Leveler. Start-Gap uses one extra block for the gap.
func (s *StartGap) NumDAs() uint64 { return s.n + 1 }

// Map implements Leveler.
func (s *StartGap) Map(pa uint64) uint64 {
	if pa >= s.n {
		panic(fmt.Sprintf("wear: start-gap PA %d out of range [0,%d)", pa, s.n))
	}
	a := s.rand.Map(pa) + s.start
	if a >= s.n {
		a -= s.n
	}
	if a < s.gap {
		return a
	}
	return a + 1
}

// Inverse implements Leveler. The gap block has no preimage.
func (s *StartGap) Inverse(da uint64) (uint64, bool) {
	if da >= s.n+1 {
		panic(fmt.Sprintf("wear: start-gap DA %d out of range [0,%d]", da, s.n))
	}
	if da == s.gap {
		return 0, false
	}
	a := da
	if a > s.gap {
		a--
	}
	if a >= s.start {
		a -= s.start
	} else {
		a += s.n - s.start
	}
	return s.rand.Inverse(a), true
}

// GapDA returns the current device address of the gap block.
func (s *StartGap) GapDA() uint64 { return s.gap }

// GapMoves returns the number of gap movements performed.
func (s *StartGap) GapMoves() uint64 { return s.gapMoves }

// NoteWrite implements Leveler: after every ψ-th write, move the gap.
// The written PA does not influence Start-Gap's schedule.
func (s *StartGap) NoteWrite(_ uint64, mover Mover) {
	s.writes++
	if s.writes < s.period {
		return
	}
	s.writes = 0
	s.moveGap(mover)
}

// moveGap performs one gap movement: the block logically above the gap is
// migrated into the gap, and the gap takes its place. When the gap is at
// the bottom (0), the block at the top (N) wraps into it and Start
// advances.
func (s *StartGap) moveGap(mover Mover) {
	var src uint64
	if s.gap == 0 {
		src = s.n
	} else {
		src = s.gap - 1
	}
	mover.Migrate(src, s.gap)
	s.gap = src
	if s.gap == s.n { // wrapped: one full rotation completed
		s.start++
		if s.start == s.n {
			s.start = 0
		}
	}
	s.gapMoves++
	if s.observer != nil {
		s.observer.Event(obs.Event{Kind: obs.GapMoved, A: s.gap})
	}
}

// SetObserver attaches an event observer (nil detaches). GapMoved fires
// once per gap movement with the gap's new device address.
func (s *StartGap) SetObserver(o obs.Observer) { s.observer = o }

// ForceGapMove triggers one gap movement immediately, regardless of the
// write counter. Used by tests and by analyses that need to step the
// mapping deterministically.
func (s *StartGap) ForceGapMove(mover Mover) { s.moveGap(mover) }

// Start returns the current start register (exposed for tests/inspection).
func (s *StartGap) Start() uint64 { return s.start }

var _ Leveler = (*StartGap)(nil)
