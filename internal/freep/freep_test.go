package freep

import (
	"errors"
	"maps"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/ecc"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

type stack struct {
	dev *pcm.Device
	be  *mc.Backend
	lv  *wear.StartGap
	os  *osmodel.Model
	fp  *FREEp
}

func newStack(t *testing.T, blocks uint64, endurance float64, fraction float64) *stack {
	t.Helper()
	lv, err := wear.NewStartGap(wear.StartGapConfig{NumPAs: blocks, GapWritePeriod: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reserved := ReservedSlots(blocks, fraction)
	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks: blocks + 1 + reserved, BlockBytes: 64, CellsPerBlock: 512,
		MeanEndurance: endurance, LifetimeCoV: 0.2, Seed: 2, TrackContent: true,
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
	fp, err := New(Config{ReserveFraction: fraction}, lv, be, osm)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{dev: dev, be: be, lv: lv, os: osm, fp: fp}
}

func (s *stack) drive(t *testing.T, g trace.Generator, n int) int {
	t.Helper()
	performed := 0
	for i := 0; i < n; i++ {
		v := g.Next()
		pa, ok := s.os.Translate(v)
		if !ok {
			break
		}
		res := s.fp.Write(pa, uint64(i))
		if res.Retry {
			if pa2, ok2 := s.os.Translate(v); ok2 {
				s.fp.Write(pa2, uint64(i))
			}
		}
		performed++
		if !s.fp.Crippled() {
			s.lv.NoteWrite(pa, s.fp)
		}
	}
	return performed
}

func TestReservedSlots(t *testing.T) {
	if ReservedSlots(1000, 0) != 0 {
		t.Error("zero fraction should reserve nothing")
	}
	// 5% of combined capacity: r = 1000*0.05/0.95 ~ 52.
	if got := ReservedSlots(1000, 0.05); got < 50 || got > 55 {
		t.Errorf("ReservedSlots(1000, 0.05) = %d", got)
	}
	// Check the fraction holds: r/(1000+r) ~ 0.05.
	r := float64(ReservedSlots(100000, 0.15))
	if frac := r / (100000 + r); frac < 0.149 || frac > 0.151 {
		t.Errorf("reserve fraction realised %v, want 0.15", frac)
	}
}

func TestConfigValidation(t *testing.T) {
	s := newStack(t, 64, 1e9, 0.05)
	if _, err := New(Config{ReserveFraction: -0.1}, s.lv, s.be, s.os); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := New(Config{ReserveFraction: 1.0}, s.lv, s.be, s.os); err == nil {
		t.Error("fraction 1.0 accepted")
	}
	// Device too small for the requested reserve.
	if _, err := New(Config{ReserveFraction: 0.5}, s.lv, s.be, s.os); err == nil {
		t.Error("oversized reserve accepted on a small device")
	}
}

func TestHealthyWritesPassThrough(t *testing.T) {
	s := newStack(t, 64, 1e9, 0.05)
	res := s.fp.Write(3, 99)
	if res.Retry || res.Accesses != 1 {
		t.Errorf("healthy write: %+v", res)
	}
	tag, acc := s.fp.Read(3)
	if tag != 99 || acc != 1 {
		t.Errorf("read = (%d, %d)", tag, acc)
	}
	if s.fp.Name() != "FREE-p(5%)" {
		t.Errorf("name = %q", s.fp.Name())
	}
}

func TestFailureUsesSlot(t *testing.T) {
	s := newStack(t, 64, 300, 0.10)
	g, _ := trace.NewUniform(64, 7)
	s.drive(t, g, 300_000)
	st := s.fp.Stats()
	if st.SlotsUsed == 0 {
		t.Fatal("no slot was ever used despite wear-out")
	}
	if s.fp.FreeSlots()+int(st.SlotsUsed) != int(ReservedSlots(64, 0.10)) {
		t.Errorf("slot accounting broken: free %d + used %d != %d",
			s.fp.FreeSlots(), st.SlotsUsed, ReservedSlots(64, 0.10))
	}
}

// A remapped block must read back its data, including across migrations
// (the adapted scheme's whole point).
func TestDataIntegrityAcrossMigrations(t *testing.T) {
	s := newStack(t, 64, 400, 0.15)
	g, _ := trace.NewUniform(64, 8)
	last := make(map[uint64]uint64) // pa -> tag
	for i := 0; i < 300_000; i++ {
		v := g.Next()
		pa, ok := s.os.Translate(v)
		if !ok || s.fp.Crippled() {
			break
		}
		res := s.fp.Write(pa, uint64(i))
		if res.Retry {
			break // slots exhausted; integrity only guaranteed before
		}
		last[pa] = uint64(i)
		s.lv.NoteWrite(pa, s.fp)
		if i%10_000 == 0 {
			for p, want := range last {
				if s.os.Retired(p) {
					delete(last, p)
					continue
				}
				if got, _ := s.fp.Read(p); got != want {
					t.Fatalf("PA %d reads %d, want %d (iteration %d)", p, got, want, i)
				}
			}
		}
	}
}

// Exhausting the pre-reserved slots must expose the failure and cripple
// wear leveling — the cliff in Figure 7.
func TestExhaustionCripples(t *testing.T) {
	s := newStack(t, 64, 150, 0.05)
	g, _ := trace.NewUniform(64, 9)
	s.drive(t, g, 2_000_000)
	if !s.fp.Crippled() {
		t.Fatal("FREE-p never exposed a failure at 150 endurance with 5% reserve")
	}
	if s.fp.FreeSlots() != 0 {
		t.Errorf("crippled with %d slots still free", s.fp.FreeSlots())
	}
	if s.fp.Stats().LostWrites == 0 {
		t.Error("exposure should lose writes")
	}
}

func TestZeroReserveCripplesOnFirstFailure(t *testing.T) {
	s := newStack(t, 64, 200, 0)
	g, _ := trace.NewUniform(64, 10)
	s.drive(t, g, 2_000_000)
	if !s.fp.Crippled() {
		t.Fatal("0% reserve should cripple at the first failure")
	}
	if s.fp.Stats().SlotsUsed != 0 {
		t.Error("no slots exist to use")
	}
}

func TestUsableFraction(t *testing.T) {
	s := newStack(t, 64, 1e9, 0.10)
	got := s.fp.SoftwareUsableFraction()
	want := 64.0 / float64(64+ReservedSlots(64, 0.10))
	if got < want-0.001 || got > want+0.001 {
		t.Errorf("usable = %v, want %v", got, want)
	}
}

func TestLargerReserveSurvivesLonger(t *testing.T) {
	writesUntilCrippled := func(fraction float64) int {
		s := newStack(t, 128, 250, fraction)
		g, _ := trace.NewUniform(128, 11)
		n := 0
		for i := 0; i < 3_000_000 && !s.fp.Crippled(); i++ {
			v := g.Next()
			pa, ok := s.os.Translate(v)
			if !ok {
				break
			}
			s.fp.Write(pa, uint64(i))
			if !s.fp.Crippled() {
				s.lv.NoteWrite(pa, s.fp)
			}
			n++
		}
		return n
	}
	small := writesUntilCrippled(0.02)
	large := writesUntilCrippled(0.15)
	if large <= small {
		t.Errorf("15%% reserve crippled after %d writes, 2%% after %d; larger reserve should last longer under uniform load",
			large, small)
	}
}

// TestRemapKeysAreDead pins the invariants effective's lookups rest on:
// only a block the backend has declared dead carries a FREE-p pointer,
// so a healthy block may skip the remap table, every pointer names a
// distinct slot that has left the free pool, and every live slot that
// left the pool has a pointer. They must hold after a failure-heavy run
// and again after a checkpoint round trip, which must restore every
// pointer.
func TestRemapKeysAreDead(t *testing.T) {
	uniform, _ := trace.NewUniform(64, 7)
	// Hammering one address wears out the slot behind it again and
	// again, so pointers move off dead slots.
	hammer, _ := trace.NewHammer(64, []uint64{5})
	for _, c := range []struct {
		name     string
		g        trace.Generator
		fraction float64
	}{{"uniform", uniform, 0.10}, {"hammer", hammer, 0.30}} {
		t.Run(c.name, func(t *testing.T) { checkRemapIndex(t, c.g, c.fraction) })
	}
}

func checkRemapIndex(t *testing.T, g trace.Generator, fraction float64) {
	s := newStack(t, 64, 300, fraction)
	s.drive(t, g, 300_000)
	want := maps.Clone(s.fp.remap)
	if len(want) == 0 {
		t.Fatal("the run remapped no failed block")
	}
	check := func(fp *FREEp, when string) {
		free := make(map[uint64]bool)
		for _, slot := range fp.slots {
			free[slot] = true
		}
		taken := make(map[uint64]uint64)
		for _, da := range ckpt.KeysU64(fp.remap) {
			slot := fp.remap[da]
			if !s.be.Dead(da) {
				t.Errorf("%s: FREE-p pointer on healthy DA %d", when, da)
			}
			if slot < s.lv.NumDAs() || slot >= s.lv.NumDAs()+fp.reserved || free[slot] {
				t.Errorf("%s: DA %d points at %d, not a taken slot", when, da, slot)
			}
			if prev, dup := taken[slot]; dup {
				t.Errorf("%s: DAs %d and %d share slot %d", when, prev, da, slot)
			}
			taken[slot] = da
		}
		// A slot leaves the pool only for a pointer, and a pointer moves
		// off a slot only when the slot dies: every taken slot that is
		// still alive must be pointed to.
		for i := uint64(0); i < fp.reserved; i++ {
			slot := s.lv.NumDAs() + i
			if _, ok := taken[slot]; !ok && !free[slot] && !s.be.Dead(slot) {
				t.Errorf("%s: live slot %d left the pool but no DA points at it", when, slot)
			}
		}
	}
	check(s.fp, "after the run")

	e := ckpt.NewEncoder()
	e.Begin("freep")
	s.fp.SaveState(e)
	e.End()
	d, err := ckpt.NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Section("freep"); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{ReserveFraction: fraction}, s.lv, s.be, s.os)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(d); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(fresh.remap, want) {
		t.Fatalf("LoadState restored remaps %v, want %v", fresh.remap, want)
	}
	check(fresh, "after LoadState")
}

// TestLoadStateRejectsRetiredPairState: the pair-coding table length and
// pair-revival count stay in the image as always-zero slots, so
// checkpoints keep their bytes; an image with either slot non-zero was
// written by a pair-coding variant this package no longer has, and
// LoadState must refuse it rather than drop that state.
func TestLoadStateRejectsRetiredPairState(t *testing.T) {
	s := newStack(t, 64, 1e9, 0.10)
	image := func(pairs uint32, revivals uint64) []byte {
		e := ckpt.NewEncoder()
		e.Begin("freep")
		e.U64s(s.fp.slots)
		e.MapU64(s.fp.remap)
		e.U32(pairs)
		if pairs > 0 {
			e.U64(s.fp.slots[0]) // the pair's slot and its failed-cell baseline
			e.I64(0)
		}
		for i := 0; i < 4; i++ {
			e.U64(0) // writes, reads, request accesses, slots used
		}
		e.Bool(false)
		e.U64(0) // lost writes
		e.U64(revivals)
		e.End()
		return e.Finish()
	}
	for _, tc := range []struct {
		name     string
		pairs    uint32
		revivals uint64
		ok       bool
	}{
		{"zero slots", 0, 0, true},
		{"pair entry", 1, 0, false},
		{"pair revivals", 0, 3, false},
	} {
		d, err := ckpt.NewDecoder(image(tc.pairs, tc.revivals))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Section("freep"); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Config{ReserveFraction: 0.10}, s.lv, s.be, s.os)
		if err != nil {
			t.Fatal(err)
		}
		err = fresh.LoadState(d)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ckpt.ErrBadCheckpoint) {
			t.Errorf("%s: LoadState = %v, want ErrBadCheckpoint", tc.name, err)
		}
	}
}
