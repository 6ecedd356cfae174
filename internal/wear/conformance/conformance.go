// Package conformance is a reusable test suite for wear.Leveler
// implementations. A scheme that passes Run upholds every property the
// rest of the framework relies on:
//
//   - the PA→DA mapping stays a data-preserving bijection under
//     arbitrary NoteWrite schedules (paper §I-B: "the same valid PA
//     consistently refers to the same data no matter where it is
//     physically migrated"),
//   - Map and Inverse agree over the whole dense address space,
//   - checkpoint state round-trips to an identical scheme that then
//     evolves identically (crash-resume determinism),
//   - identical seeds and schedules replay the identical migration
//     stream (cross-instance determinism), and
//   - the scheme runs unmodified under WL-Reviver with injected block
//     failures — the paper's central "revive any scheme" claim.
//
// New levelers register a Factory and call Run from an external test
// package; the suite needs nothing scheme-specific beyond construction.
package conformance

import (
	"fmt"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/ecc"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/reviver"
	"wlreviver/internal/rng"
	"wlreviver/internal/wear"
)

// ShadowMem mirrors the physical data movement a Mover performs, so a
// test can check that the mapping always points at the data the PA last
// wrote.
type ShadowMem struct {
	Data []uint64
}

// NewShadowMem builds a shadow of numDAs device blocks, poisoned with a
// value no Tag ever produces.
func NewShadowMem(numDAs uint64) *ShadowMem {
	m := &ShadowMem{Data: make([]uint64, numDAs)}
	for i := range m.Data {
		m.Data[i] = ^uint64(0)
	}
	return m
}

// Mover returns a wear.Mover that applies the scheme's migrations to the
// shadow.
func (m *ShadowMem) Mover() wear.Mover {
	return wear.FuncMover{
		MigrateFn: func(src, dst uint64) { m.Data[dst] = m.Data[src] },
		SwapFn:    func(a, b uint64) { m.Data[a], m.Data[b] = m.Data[b], m.Data[a] },
	}
}

// Tag is the logical content written at pa.
func Tag(pa uint64) uint64 { return pa*2654435761 + 12345 }

// FillThrough writes every PA's tag through the current mapping.
func FillThrough(l wear.Leveler, m *ShadowMem) {
	for pa := uint64(0); pa < l.NumPAs(); pa++ {
		m.Data[l.Map(pa)] = Tag(pa)
	}
}

// VerifyThrough checks every PA reads its tag through the current
// mapping.
func VerifyThrough(t testing.TB, l wear.Leveler, m *ShadowMem, context string) {
	t.Helper()
	for pa := uint64(0); pa < l.NumPAs(); pa++ {
		if got := m.Data[l.Map(pa)]; got != Tag(pa) {
			t.Fatalf("%s: PA %d reads %d, want %d (mapped to DA %d)",
				context, pa, got, Tag(pa), l.Map(pa))
		}
	}
}

// VerifyBijection checks Map is injective into [0, NumDAs), that Inverse
// agrees with Map on every mapped DA, and that unmapped DAs report
// ok=false.
func VerifyBijection(t testing.TB, l wear.Leveler, context string) {
	t.Helper()
	seen := make(map[uint64]uint64, l.NumPAs())
	for pa := uint64(0); pa < l.NumPAs(); pa++ {
		da := l.Map(pa)
		if da >= l.NumDAs() {
			t.Fatalf("%s: Map(%d) = %d outside DA space [0,%d)", context, pa, da, l.NumDAs())
		}
		if prev, dup := seen[da]; dup {
			t.Fatalf("%s: PAs %d and %d both map to DA %d", context, prev, pa, da)
		}
		seen[da] = pa
		back, ok := l.Inverse(da)
		if !ok || back != pa {
			t.Fatalf("%s: Inverse(%d) = (%d,%v), want (%d,true)", context, da, back, ok, pa)
		}
	}
	for da := uint64(0); da < l.NumDAs(); da++ {
		if _, mapped := seen[da]; !mapped {
			if _, ok := l.Inverse(da); ok {
				t.Fatalf("%s: unmapped DA %d has an inverse", context, da)
			}
		}
	}
}

// Factory builds fresh, identically-configured instances of one leveler
// for the suite. New must return an independent scheme every call; two
// calls with the same seed must configure identical schemes (schemes
// without an RNG simply ignore the seed).
type Factory struct {
	// Name labels the subtest tree.
	Name string
	// New constructs the scheme.
	New func(seed uint64) (wear.Leveler, error)
	// PageBlocks is the OS page size the revive subtest runs the scheme
	// under; it must divide the scheme's NumPAs. Zero selects 16.
	PageBlocks uint64
}

// stateful is the checkpoint surface every shipped leveler implements
// (mirrors the sim engine's ckptSaver/ckptLoader pair).
type stateful interface {
	SaveState(*ckpt.Encoder)
	LoadState(*ckpt.Decoder) error
}

// schedule derives a deterministic, adversarially mixed PA stream:
// mostly uniform with a hammered hot set, the two access patterns that
// drive every scheme's leveling triggers at different rates.
func schedule(src *rng.Source, numPAs uint64) uint64 {
	if src.Uint64n(4) == 0 {
		return src.Uint64n(4) % numPAs // hammer a small hot set
	}
	return src.Uint64n(numPAs)
}

// Run exercises the full conformance suite against the factory's scheme.
func Run(t *testing.T, f Factory) {
	t.Run("bijection", func(t *testing.T) { runBijection(t, f) })
	t.Run("checkpoint", func(t *testing.T) { runCheckpoint(t, f) })
	t.Run("determinism", func(t *testing.T) { runDeterminism(t, f) })
	t.Run("revive", func(t *testing.T) { runRevive(t, f) })
}

// runBijection drives an arbitrary write schedule and re-verifies the
// dense bijection and data consistency throughout.
func runBijection(t *testing.T, f Factory) {
	lv, err := f.New(17)
	if err != nil {
		t.Fatal(err)
	}
	VerifyBijection(t, lv, "fresh")
	mem := NewShadowMem(lv.NumDAs())
	FillThrough(lv, mem)
	src := rng.New(91)
	for step := 0; step < 4000; step++ {
		lv.NoteWrite(schedule(src, lv.NumPAs()), mem.Mover())
		if step%97 == 0 {
			VerifyBijection(t, lv, fmt.Sprintf("step %d", step))
			VerifyThrough(t, lv, mem, fmt.Sprintf("step %d", step))
		}
	}
	VerifyBijection(t, lv, "final")
	VerifyThrough(t, lv, mem, "final")
}

// runCheckpoint saves mid-evolution state, restores it into a fresh
// identically-configured scheme, and requires the pair to be
// indistinguishable: identical dense mappings, identical re-encoded
// state bytes, and identical evolution under a continued shared
// schedule.
func runCheckpoint(t *testing.T, f Factory) {
	const seed = 23
	lv, err := f.New(seed)
	if err != nil {
		t.Fatal(err)
	}
	saver, ok := lv.(stateful)
	if !ok {
		t.Fatalf("%s does not implement SaveState/LoadState; every shipped leveler must checkpoint", lv.Name())
	}
	mem := NewShadowMem(lv.NumDAs())
	FillThrough(lv, mem)
	src := rng.New(41)
	for step := 0; step < 1500; step++ {
		lv.NoteWrite(schedule(src, lv.NumPAs()), mem.Mover())
	}

	blob := encodeState(t, saver)
	fresh, err := f.New(seed)
	if err != nil {
		t.Fatal(err)
	}
	loader := fresh.(stateful)
	dec, err := ckpt.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Section("leveler"); err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadState(dec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}

	compareMappings(t, lv, fresh, "after restore")
	if again := encodeState(t, loader); string(again) != string(blob) {
		t.Fatal("re-encoded state differs from the checkpoint it was restored from")
	}

	// Continued evolution must not diverge: the restored scheme is the
	// original, not merely a scheme with the same mapping.
	memB := NewShadowMem(fresh.NumDAs())
	copy(memB.Data, mem.Data)
	cont := rng.New(43)
	for step := 0; step < 1500; step++ {
		pa := schedule(cont, lv.NumPAs())
		lv.NoteWrite(pa, mem.Mover())
		fresh.NoteWrite(pa, memB.Mover())
		if step%211 == 0 {
			compareMappings(t, lv, fresh, fmt.Sprintf("continued step %d", step))
		}
	}
	compareMappings(t, lv, fresh, "continued final")
	VerifyThrough(t, fresh, memB, "restored final")
}

// encodeState serializes one leveler section the way the engine does.
func encodeState(t *testing.T, s stateful) []byte {
	t.Helper()
	enc := ckpt.NewEncoder()
	enc.Begin("leveler")
	s.SaveState(enc)
	enc.End()
	return enc.Finish()
}

// compareMappings requires two schemes to agree on the dense forward
// mapping (the bijection check makes Inverse agreement follow).
func compareMappings(t *testing.T, a, b wear.Leveler, context string) {
	t.Helper()
	if a.NumPAs() != b.NumPAs() || a.NumDAs() != b.NumDAs() {
		t.Fatalf("%s: geometry differs: %d/%d PAs, %d/%d DAs",
			context, a.NumPAs(), b.NumPAs(), a.NumDAs(), b.NumDAs())
	}
	for pa := uint64(0); pa < a.NumPAs(); pa++ {
		if da, db := a.Map(pa), b.Map(pa); da != db {
			t.Fatalf("%s: Map(%d) = %d vs %d", context, pa, da, db)
		}
	}
}

// runDeterminism replays one schedule into two same-seed instances and
// requires identical migration streams and final mappings — the property
// RunN batching, sharding and crash-resume all build on.
func runDeterminism(t *testing.T, f Factory) {
	record := func() ([]string, wear.Leveler) {
		lv, err := f.New(71)
		if err != nil {
			t.Fatal(err)
		}
		var events []string
		mover := wear.FuncMover{
			MigrateFn: func(src, dst uint64) { events = append(events, fmt.Sprintf("M %d %d", src, dst)) },
			SwapFn:    func(a, b uint64) { events = append(events, fmt.Sprintf("S %d %d", a, b)) },
		}
		src := rng.New(29)
		for step := 0; step < 3000; step++ {
			lv.NoteWrite(schedule(src, lv.NumPAs()), mover)
		}
		return events, lv
	}
	evA, lvA := record()
	evB, lvB := record()
	if len(evA) == 0 {
		t.Fatal("schedule triggered no migrations; the suite exercised nothing")
	}
	if len(evA) != len(evB) {
		t.Fatalf("migration streams diverge: %d vs %d events", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("migration %d diverges: %q vs %q", i, evA[i], evB[i])
		}
	}
	compareMappings(t, lvA, lvB, "deterministic replay")
}

// runRevive runs the scheme unmodified under WL-Reviver on a PCM device
// with low endurance, so block failures pile up mid-schedule, and
// requires data consistency plus the paper's chain invariants — the
// framework's "revive any wear-leveling technique" claim, per scheme.
func runRevive(t *testing.T, f Factory) {
	lv, err := f.New(31)
	if err != nil {
		t.Fatal(err)
	}
	pageBlocks := f.PageBlocks
	if pageBlocks == 0 {
		pageBlocks = 16
	}
	if lv.NumPAs()%pageBlocks != 0 {
		t.Fatalf("factory page size %d does not divide NumPAs %d", pageBlocks, lv.NumPAs())
	}
	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks:     lv.NumDAs(),
		BlockBytes:    64,
		CellsPerBlock: 512,
		MeanEndurance: 220,
		LifetimeCoV:   0.25,
		Seed:          31,
		TrackContent:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ecc.NewECP(6, lv.NumDAs())
	if err != nil {
		t.Fatal(err)
	}
	osm, err := osmodel.New(lv.NumPAs(), pageBlocks)
	if err != nil {
		t.Fatal(err)
	}
	be := &mc.Backend{Dev: dev, ECC: e}
	rv, err := reviver.New(reviver.Config{}, lv, be, osm)
	if err != nil {
		t.Fatal(err)
	}

	expected := make(map[uint64]uint64)
	src := rng.New(37)
	var nextTag, performed uint64
	for i := 0; i < 60000; i++ {
		vblock := schedule(src, lv.NumPAs())
		nextTag++
		wrote := false
		for attempt := uint64(0); !wrote; attempt++ {
			if attempt > osm.NumPages()+2 {
				t.Fatalf("write to vblock %d did not settle", vblock)
			}
			pa, ok := osm.Translate(vblock)
			if !ok {
				i = 1 << 30 // memory exhausted: stop the outer loop too
				break
			}
			res := rv.Write(pa, nextTag)
			noteRelocations(t, osm, expected, pa, rv.LastRelocations(), res.Retry)
			if !res.Retry {
				expected[pa] = nextTag
				rv.ResumePending()
				lv.NoteWrite(pa, rv)
				wrote = true
				performed++
			}
		}
		if wrote && performed%512 == 0 {
			verifyRevived(t, lv, be, osm, rv, expected)
		}
	}
	if dev.DeadBlocks() == 0 {
		t.Fatal("no block ever failed; the revive path was not exercised")
	}
	verifyRevived(t, lv, be, osm, rv, expected)
}

// noteRelocations mirrors a page retirement into the PA-level
// expectations: the reviver already performed the OS's recovery copies,
// so the test only moves its bookkeeping (and drops blocks that were not
// copied).
func noteRelocations(t *testing.T, osm *osmodel.Model, expected map[uint64]uint64,
	reportPA uint64, relocs []osmodel.Relocation, retired bool) {
	t.Helper()
	if !retired {
		if len(relocs) != 0 {
			t.Fatalf("LastRelocations is not empty after a Write that did not retire a page")
		}
		return
	}
	moved := make(map[uint64]uint64, len(relocs))
	for _, rc := range relocs {
		moved[rc.OldPA] = rc.NewPA
	}
	page := osm.PageOf(reportPA)
	bpp := osm.BlocksPerPage()
	for off := uint64(0); off < bpp; off++ {
		old := page*bpp + off
		tag, had := expected[old]
		delete(expected, old)
		if newPA, copied := moved[old]; copied {
			if had {
				expected[newPA] = tag
			} else {
				delete(expected, newPA)
			}
		}
	}
}

// verifyRevived checks content consistency and the paper's chain-length
// theorems at a rest point (a pending suspended migration parks data in
// the migration buffer, so those instants are skipped).
func verifyRevived(t *testing.T, lv wear.Leveler, be *mc.Backend, osm *osmodel.Model,
	rv *reviver.Reviver, expected map[uint64]uint64) {
	t.Helper()
	if rv.HasPending() {
		return
	}
	for pa, want := range expected {
		if osm.Retired(pa) {
			continue
		}
		if got, _ := rv.Read(pa); got != want {
			t.Fatalf("PA %d reads tag %d, want %d", pa, got, want)
		}
	}
	// Theorem 1: every software-accessible failed block has a one-step
	// chain to a healthy block.
	for pa := uint64(0); pa < lv.NumPAs(); pa++ {
		if osm.Retired(pa) {
			continue
		}
		da := lv.Map(pa)
		if !be.Dead(da) {
			continue
		}
		steps, healthy := rv.ChainSteps(da)
		if !healthy || steps != 1 {
			t.Fatalf("theorem 1 violated: live PA %d -> dead DA %d has chain (steps=%d healthy=%v)",
				pa, da, steps, healthy)
		}
	}
	// Theorem 2: every unlinked reserved PA reaches a healthy block in at
	// most one step.
	for _, p := range rv.SparePAs() {
		steps, healthy := rv.ChainSteps(lv.Map(p))
		if !healthy || steps > 1 {
			t.Fatalf("theorem 2 violated: spare PA %d (steps=%d healthy=%v)", p, steps, healthy)
		}
	}
}
