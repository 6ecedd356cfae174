package wear_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"wlreviver/internal/obs"
	"wlreviver/internal/stats"
	"wlreviver/internal/wear"
	"wlreviver/internal/wear/conformance"
)

func newTestRegioned(t *testing.T, n, regions, period uint64) *wear.RegionedStartGap {
	t.Helper()
	s, err := wear.NewRegionedStartGap(wear.RegionedStartGapConfig{
		NumPAs: n, Regions: regions, GapWritePeriod: period, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegionedConfigErrors(t *testing.T) {
	cases := []wear.RegionedStartGapConfig{
		{NumPAs: 0, Regions: 1, GapWritePeriod: 1},
		{NumPAs: 64, Regions: 0, GapWritePeriod: 1},
		{NumPAs: 65, Regions: 2, GapWritePeriod: 1}, // not divisible
		{NumPAs: 96, Regions: 2, GapWritePeriod: 1}, // region size 48 not pow2
		{NumPAs: 64, Regions: 2, GapWritePeriod: 0}, // no period
	}
	for i, c := range cases {
		if _, err := wear.NewRegionedStartGap(c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	wrong := wear.Identity{Size: 32}
	if _, err := wear.NewRegionedStartGap(wear.RegionedStartGapConfig{
		NumPAs: 64, Regions: 2, GapWritePeriod: 1, Randomizer: wrong,
	}); err == nil {
		t.Error("mismatched randomizer accepted")
	}
}

func TestRegionedGeometry(t *testing.T) {
	s := newTestRegioned(t, 64, 4, 2)
	if s.NumPAs() != 64 {
		t.Errorf("PAs = %d", s.NumPAs())
	}
	if s.NumDAs() != 68 { // one gap line per region
		t.Errorf("DAs = %d, want 68", s.NumDAs())
	}
	if s.Name() != "Start-Gap-4R" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestRegionedBijectionAndConsistency(t *testing.T) {
	s := newTestRegioned(t, 64, 4, 1)
	mem := conformance.NewShadowMem(s.NumDAs())
	conformance.FillThrough(s, mem)
	conformance.VerifyBijection(t, s, "initial")
	for step := 0; step < 600; step++ {
		s.NoteWrite(uint64(step*13)%64, mem.Mover())
		if step%37 == 0 {
			conformance.VerifyBijection(t, s, fmt.Sprintf("step %d", step))
			conformance.VerifyThrough(t, s, mem, fmt.Sprintf("step %d", step))
		}
	}
	conformance.VerifyThrough(t, s, mem, "final")
	if s.GapMoves() == 0 {
		t.Error("no gap ever moved")
	}
}

// Property: arbitrary write sequences keep the regioned mapping a
// data-preserving bijection.
func TestQuickRegionedConsistency(t *testing.T) {
	prop := func(pas []uint16) bool {
		s, err := wear.NewRegionedStartGap(wear.RegionedStartGapConfig{
			NumPAs: 32, Regions: 2, GapWritePeriod: 1, Seed: 3,
		})
		if err != nil {
			return false
		}
		mem := conformance.NewShadowMem(s.NumDAs())
		conformance.FillThrough(s, mem)
		for _, p := range pas {
			s.NoteWrite(uint64(p)%32, mem.Mover())
		}
		for pa := uint64(0); pa < 32; pa++ {
			if mem.Data[s.Map(pa)] != conformance.Tag(pa) {
				return false
			}
			if back, ok := s.Inverse(s.Map(pa)); !ok || back != pa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// gapCounter tallies GapMoved events per region through the public
// observer hook; the region is the gap's chip DA over the per-region DA
// stride.
type gapCounter struct {
	stride uint64
	moves  map[uint64]int
}

func (c *gapCounter) Event(e obs.Event) {
	if e.Kind == obs.GapMoved {
		c.moves[e.A/c.stride]++
	}
}

func (c *gapCounter) Snapshot(obs.Snapshot) {}

// Writes confined to one region must only move that region's gap.
func TestRegionedIndependentPacing(t *testing.T) {
	s := newTestRegioned(t, 64, 4, 4)
	counter := &gapCounter{stride: s.NumDAs() / 4, moves: make(map[uint64]int)}
	s.SetObserver(counter)
	mem := conformance.NewShadowMem(s.NumDAs())
	conformance.FillThrough(s, mem)
	// All writes to PA 5: lands in one fixed region (static randomizer).
	for i := 0; i < 100; i++ {
		s.NoteWrite(5, mem.Mover())
	}
	if len(counter.moves) != 1 {
		t.Errorf("%d regions moved their gaps; writes went to one region only", len(counter.moves))
	}
	conformance.VerifyThrough(t, s, mem, "after confined writes")
}

// The regioned organisation must still level skewed traffic chip-wide
// (the chip-wide randomizer spreads hot addresses across regions).
func TestRegionedLevelsSkewedWrites(t *testing.T) {
	const n = 256
	s := newTestRegioned(t, n, 4, 10)
	wearCount := make([]uint64, s.NumDAs())
	mover := wear.FuncMover{MigrateFn: func(src, dst uint64) { wearCount[dst]++ }}
	for i := 0; i < 200000; i++ {
		pa := uint64(i) % 8
		wearCount[s.Map(pa)]++
		s.NoteWrite(pa, mover)
	}
	if cov := stats.CoVOfCounts(wearCount); cov > 3.0 {
		t.Errorf("wear CoV %.2f too high; regioned leveling ineffective", cov)
	}
}

func TestRegionedPanics(t *testing.T) {
	s := newTestRegioned(t, 32, 2, 1)
	for _, fn := range []func(){
		func() { s.Map(32) },
		func() { s.Inverse(s.NumDAs()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
