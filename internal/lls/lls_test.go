package lls

import (
	"errors"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/ecc"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/stats"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

func TestRestrictedRandomizer(t *testing.T) {
	if _, err := NewRestrictedRandomizer(0, 1); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewRestrictedRandomizer(7, 1); err == nil {
		t.Error("odd domain accepted")
	}
	const n = 256
	r, err := NewRestrictedRandomizer(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != n {
		t.Errorf("N = %d", r.N())
	}
	seen := make(map[uint64]bool, n)
	for x := uint64(0); x < n; x++ {
		y := r.Map(x)
		if seen[y] {
			t.Fatalf("not injective at %d", x)
		}
		seen[y] = true
		if back := r.Inverse(y); back != x {
			t.Fatalf("Inverse(Map(%d)) = %d", x, back)
		}
		// The restriction: halves swap.
		if (x < n/2) == (y < n/2) {
			t.Fatalf("Map(%d) = %d stays in its half; restriction violated", x, y)
		}
	}
}

// The restricted randomizer concentrates a hot region's writes into one
// half of the space — its leveling deficit versus the full Feistel.
func TestRestrictedRandomizerWeakerSpread(t *testing.T) {
	const n = 1 << 12
	restricted, _ := NewRestrictedRandomizer(n, 9)
	full, _ := wear.NewFeistel(n, 4, 9)
	spread := func(r wear.Randomizer) float64 {
		counts := make([]uint64, n)
		// Hot region: first 64 addresses hammered.
		for i := 0; i < 1<<16; i++ {
			counts[r.Map(uint64(i)%64)]++
		}
		return stats.CoVOfCounts(counts)
	}
	// Both scramble, so CoV is similar at this granularity — but the
	// restricted one confines the image to one half: verify directly.
	inUpper := 0
	for x := uint64(0); x < 64; x++ {
		if restricted.Map(x) >= n/2 {
			inUpper++
		}
	}
	if inUpper != 64 {
		t.Errorf("restricted randomizer leaked %d/64 hot addresses out of the target half", 64-inUpper)
	}
	_ = spread(full)
}

type stack struct {
	dev *pcm.Device
	be  *mc.Backend
	lv  *wear.StartGap
	os  *osmodel.Model
	ll  *LLS
}

func newStack(t *testing.T, blocks uint64, endurance float64, chunkPages uint64) *stack {
	t.Helper()
	rnd, err := NewRestrictedRandomizer(blocks, 3)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := wear.NewStartGap(wear.StartGapConfig{
		NumPAs: blocks, GapWritePeriod: 8, Randomizer: rnd,
	})
	if err != nil {
		t.Fatal(err)
	}
	backupRegion := blocks / 2
	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks: blocks + 1 + backupRegion, BlockBytes: 64, CellsPerBlock: 512,
		MeanEndurance: endurance, LifetimeCoV: 0.2, Seed: 3, TrackContent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := ecc.NewECP(6, dev.NumBlocks())
	osm, err := osmodel.New(blocks, 16)
	if err != nil {
		t.Fatal(err)
	}
	be := &mc.Backend{Dev: dev, ECC: e}
	ll, err := New(Config{ChunkPages: chunkPages, SalvageGroups: 4}, lv, be, osm)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{dev: dev, be: be, lv: lv, os: osm, ll: ll}
}

func (s *stack) drive(t *testing.T, g trace.Generator, n int) {
	t.Helper()
	for i := 0; i < n && !s.ll.Crippled(); i++ {
		pa, ok := s.os.Translate(g.Next())
		if !ok {
			break
		}
		s.ll.Write(pa, uint64(i))
		if !s.ll.Crippled() {
			s.lv.NoteWrite(pa, s.ll)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	s := newStack(t, 64, 1e9, 1)
	if _, err := New(Config{ChunkPages: 0, SalvageGroups: 4}, s.lv, s.be, s.os); err == nil {
		t.Error("zero chunk accepted")
	}
	if _, err := New(Config{ChunkPages: 1, SalvageGroups: 0}, s.lv, s.be, s.os); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := New(Config{ChunkPages: 1000, SalvageGroups: 4}, s.lv, s.be, s.os); err == nil {
		t.Error("chunk larger than backup capacity accepted")
	}
}

func TestHealthyPath(t *testing.T) {
	s := newStack(t, 64, 1e9, 1)
	res := s.ll.Write(7, 77)
	if res.Accesses != 1 {
		t.Errorf("healthy write used %d accesses", res.Accesses)
	}
	tag, acc := s.ll.Read(7)
	if tag != 77 || acc != 1 {
		t.Errorf("read = (%d,%d)", tag, acc)
	}
	if s.ll.Name() != "LLS" || s.ll.ResumePending() != 0 {
		t.Error("metadata wrong")
	}
	if s.ll.SoftwareUsableFraction() != 1 {
		t.Error("fresh LLS should be fully usable")
	}
}

func TestFailureReservesChunkAndRemaps(t *testing.T) {
	s := newStack(t, 128, 300, 1)
	g, _ := trace.NewUniform(128, 4)
	s.drive(t, g, 400_000)
	st := s.ll.Stats()
	if st.Failures == 0 {
		t.Fatal("no failure occurred at 300 endurance")
	}
	if st.ChunksReserved == 0 {
		t.Fatal("failures occurred but no chunk was reserved")
	}
	// Space drops in chunk-page steps.
	want := 1 - float64(st.ChunksReserved)*1*16/128.0/16*16 // ChunkPages=1, 8 pages total
	_ = want
	if s.ll.SoftwareUsableFraction() >= 1 {
		t.Error("chunk reservation should reduce usable space")
	}
	retired := s.os.RetiredPages()
	if retired != st.ChunksReserved*1 {
		t.Errorf("retired %d pages for %d chunks of 1 page", retired, st.ChunksReserved)
	}
}

// Remapped data stays readable across wear-leveling migrations.
func TestDataIntegrityAcrossMigrations(t *testing.T) {
	s := newStack(t, 128, 350, 1)
	g, _ := trace.NewUniform(128, 5)
	last := make(map[uint64]uint64)
	for i := 0; i < 400_000 && !s.ll.Crippled(); i++ {
		v := g.Next()
		pa, ok := s.os.Translate(v)
		if !ok {
			break
		}
		s.ll.Write(pa, uint64(i))
		last[pa] = uint64(i)
		if !s.ll.Crippled() {
			s.lv.NoteWrite(pa, s.ll)
		}
		if i%10_000 == 0 {
			for p, want := range last {
				if s.os.Retired(p) {
					delete(last, p)
					continue
				}
				if got, _ := s.ll.Read(p); got != want {
					t.Fatalf("PA %d reads %d, want %d at iteration %d", p, got, want, i)
				}
			}
		}
	}
	if s.ll.Stats().Failures == 0 {
		t.Skip("no failures; integrity under remapping not exercised")
	}
}

func TestUncachedAccessesCostThree(t *testing.T) {
	s := newStack(t, 128, 300, 1)
	g, _ := trace.NewUniform(128, 6)
	s.drive(t, g, 300_000)
	st := s.ll.Stats()
	if st.Failures == 0 {
		t.Skip("no failures")
	}
	ratio := float64(st.RequestAccesses) / float64(st.SoftwareWrites+st.SoftwareReads)
	if ratio <= 1.0 {
		t.Errorf("failed-block accesses should exceed 1 access/request, got %v", ratio)
	}
	if ratio > 3.5 {
		t.Errorf("access ratio %v implausibly high", ratio)
	}
}

func TestExhaustionExposes(t *testing.T) {
	s := newStack(t, 64, 100, 1)
	g, _ := trace.NewUniform(64, 7)
	s.drive(t, g, 3_000_000)
	if !s.ll.Crippled() {
		t.Fatal("LLS survived unbounded wear-out")
	}
}

func TestShiftWritesHappen(t *testing.T) {
	s := newStack(t, 128, 250, 1)
	g, _ := trace.NewUniform(128, 8)
	s.drive(t, g, 500_000)
	st := s.ll.Stats()
	if st.Failures < 3 {
		t.Skip("too few failures to observe shifting")
	}
	if st.ShiftWrites == 0 {
		t.Error("multiple failures but no order-matching shifts")
	}
}

// TestFailedListsAreDead pins the invariants effective's lookups rest
// on: only a block the backend has declared dead sits in a salvaging
// group's failed list, so a healthy block may skip the position index,
// and the index gives every listed block its first list position and no
// other block one. They must hold after a failure-heavy run and again
// after a checkpoint round trip.
func TestFailedListsAreDead(t *testing.T) {
	s := newStack(t, 128, 300, 1)
	g, _ := trace.NewUniform(128, 4)
	s.drive(t, g, 400_000)
	check := func(ll *LLS, when string) int {
		n, distinct := 0, 0
		for gi, grp := range ll.groups {
			for k, da := range grp.failed {
				n++
				if !s.be.Dead(da) {
					t.Errorf("%s: group %d lists healthy DA %d as failed", when, gi, da)
				}
				if k > 0 && grp.failed[k-1] == da {
					continue
				}
				distinct++
				if got := ll.backupIndex(da); got != k {
					t.Errorf("%s: DA %d is failed[%d] of group %d, index says %d", when, da, k, gi, got)
				}
			}
		}
		indexed := 0
		for _, p := range ll.pos {
			if p != 0 {
				indexed++
			}
		}
		if indexed != distinct {
			t.Errorf("%s: index holds %d blocks, failed lists %d", when, indexed, distinct)
		}
		return n
	}
	failed := check(s.ll, "after the run")
	if failed < 2*len(s.ll.groups) {
		t.Fatalf("the run registered %d failed blocks; too few to shift a list", failed)
	}

	e := ckpt.NewEncoder()
	e.Begin("lls")
	s.ll.SaveState(e)
	e.End()
	d, err := ckpt.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Section("lls"); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{ChunkPages: 1, SalvageGroups: 4}, s.lv, s.be, s.os)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if got := check(fresh, "after LoadState"); got != failed {
		t.Fatalf("LoadState restored %d failed blocks, want %d", got, failed)
	}
}

// TestLoadStateRejectsMisplacedFailure: a failed list out of strictly
// ascending order, holding another group's block, or naming a DA outside
// the data region cannot come from SaveState, and LoadState must refuse
// it rather than index with it.
func TestLoadStateRejectsMisplacedFailure(t *testing.T) {
	s := newStack(t, 128, 1e9, 1)
	for _, failed := range [][]uint64{
		{8, 4},              // descending
		{4, 4},              // one block listed twice
		{5},                 // group 1's block in group 0
		{s.lv.NumDAs() * 4}, // outside the data region
	} {
		e := ckpt.NewEncoder()
		e.Begin("lls")
		e.U32(uint32(len(s.ll.groups)))
		for gi := range s.ll.groups {
			if gi == 0 {
				e.U64s(failed)
			} else {
				e.U64s(nil)
			}
			e.U64s(nil)
		}
		for i := 0; i < 7; i++ {
			e.U64(0)
		}
		e.Bool(false)
		e.End()
		d, err := ckpt.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Section("lls"); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Config{ChunkPages: 1, SalvageGroups: 4}, s.lv, s.be, s.os)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadState(d); !errors.Is(err, ckpt.ErrBadCheckpoint) {
			t.Errorf("failed list %v: LoadState = %v, want ErrBadCheckpoint", failed, err)
		}
	}
}
