package reviver

import (
	"bytes"
	"slices"
	"testing"

	"wlreviver/internal/cache"
	"wlreviver/internal/ckpt"
	"wlreviver/internal/ecc"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

// harness wires a small full stack (device + ECC + leveler + OS + reviver)
// and drives it the way the simulation engine does: translate, write,
// replay relocations, retry sacrificed writes, resume pending migrations,
// then pace the leveler.
type harness struct {
	t   testing.TB
	dev *pcm.Device
	be  *mc.Backend
	lv  wear.Leveler
	os  *osmodel.Model
	rv  *Reviver

	expected map[uint64]uint64 // PA -> last tag written there
	nextTag  uint64
}

type harnessOpts struct {
	blocks        uint64  // PA space size (blocks)
	blocksPerPage uint64  // page size
	endurance     float64 // mean cell endurance
	seed          uint64
	securityRef   bool // use Security Refresh instead of Start-Gap
	regioned      bool // use the multi-region Start-Gap organisation
	cacheKB       int  // remap cache size; 0 = none
	noReduce      bool // disable chain reduction
	gapPeriod     uint64
}

func newHarness(t testing.TB, o harnessOpts) *harness {
	t.Helper()
	if o.blocksPerPage == 0 {
		o.blocksPerPage = 16
	}
	if o.gapPeriod == 0 {
		o.gapPeriod = 8
	}
	var lv wear.Leveler
	numDAs := o.blocks + 1
	if o.regioned {
		const regions = 4
		rsg, err := wear.NewRegionedStartGap(wear.RegionedStartGapConfig{
			NumPAs: o.blocks, Regions: regions, GapWritePeriod: o.gapPeriod, Seed: o.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		lv = rsg
		numDAs = o.blocks + regions
	} else if o.securityRef {
		sr, err := wear.NewSecurityRefresh(wear.SecurityRefreshConfig{
			NumPAs: o.blocks, OuterWritePeriod: o.gapPeriod, Seed: o.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		lv = sr
		numDAs = o.blocks
	} else {
		sg, err := wear.NewStartGap(wear.StartGapConfig{
			NumPAs: o.blocks, GapWritePeriod: o.gapPeriod, Seed: o.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		lv = sg
	}
	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks:     numDAs,
		BlockBytes:    64,
		CellsPerBlock: 512,
		MeanEndurance: o.endurance,
		LifetimeCoV:   0.2,
		Seed:          o.seed,
		TrackContent:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ecc.NewECP(6, numDAs)
	if err != nil {
		t.Fatal(err)
	}
	osm, err := osmodel.New(o.blocks, o.blocksPerPage)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DisableChainReduction: o.noReduce}
	if o.cacheKB > 0 {
		cc, err := cache.SizedConfig(o.cacheKB*1024, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RemapCache = c
	}
	be := &mc.Backend{Dev: dev, ECC: e}
	rv, err := New(cfg, lv, be, osm)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t: t, dev: dev, be: be, lv: lv, os: osm, rv: rv,
		expected: make(map[uint64]uint64),
	}
}

// write performs one software write to vblock, following the engine
// protocol. Returns false when the memory is exhausted.
func (h *harness) write(vblock uint64) bool {
	h.nextTag++
	tag := h.nextTag
	for attempt := 0; ; attempt++ {
		if attempt > int(h.os.NumPages())+2 {
			h.t.Fatalf("write to vblock %d did not settle after %d retries", vblock, attempt)
		}
		pa, ok := h.os.Translate(vblock)
		if !ok {
			return false
		}
		res := h.rv.Write(pa, tag)
		h.noteRelocations(pa, h.rv.LastRelocations(), res.Retry)
		if !res.Retry {
			h.expected[pa] = tag
			h.rv.ResumePending()
			h.lv.NoteWrite(pa, h.rv)
			return true
		}
	}
}

// noteRelocations updates PA-level expectations after a page retirement:
// the reviver has already performed the OS's recovery copies; the harness
// only moves its bookkeeping. Blocks of the retired page that were not
// copied (no recoverable data, or the copy was dropped) are dropped.
//
// The donor page is a live frame (the fully-committed model folds the
// retired page's virtual page onto it), so every performed copy
// *overwrites* the donor block — including copies of blocks software
// never wrote, whose content the harness does not track. Those must
// clear the donor PA's expectation rather than leave a stale tag behind;
// missing that was the historic "PA <n> reads tag 0" flake.
func (h *harness) noteRelocations(reportPA uint64, relocs []osmodel.Relocation, retired bool) {
	if !retired {
		if len(relocs) != 0 {
			h.t.Fatalf("LastRelocations is not empty after a Write that did not retire a page")
		}
		return
	}
	moved := make(map[uint64]uint64, len(relocs))
	for _, rc := range relocs {
		moved[rc.OldPA] = rc.NewPA
	}
	page := h.os.PageOf(reportPA)
	bpp := h.os.BlocksPerPage()
	for off := uint64(0); off < bpp; off++ {
		old := page*bpp + off
		tag, had := h.expected[old]
		delete(h.expected, old)
		if newPA, copied := moved[old]; copied {
			if had {
				h.expected[newPA] = tag
			} else {
				delete(h.expected, newPA)
			}
		}
	}
}

// verifyContent checks every live PA reads back its last written tag.
func (h *harness) verifyContent() {
	h.t.Helper()
	if h.rv.HasPending() {
		return // transient state; data sits in the migration buffer
	}
	for pa, want := range h.expected {
		if h.os.Retired(pa) {
			continue
		}
		got, _ := h.rv.Read(pa)
		if got != want {
			h.t.Fatalf("PA %d reads tag %d, want %d", pa, got, want)
		}
	}
}

// verifyTheorems checks the paper's three theorems at a rest point.
func (h *harness) verifyTheorems() {
	h.t.Helper()
	if h.rv.HasPending() {
		return
	}
	linked := h.rv.LinkedDAs()
	if h.rv.LinkedFailures() != len(linked) {
		h.t.Fatalf("LinkedFailures() = %d, but the arena links %d DAs", h.rv.LinkedFailures(), len(linked))
	}
	// Theorem 1: every software-accessible failed block has a one-step
	// chain to a healthy block.
	for pa := uint64(0); pa < h.lv.NumPAs(); pa++ {
		if h.os.Retired(pa) {
			continue
		}
		da := h.lv.Map(pa)
		if !h.be.Dead(da) {
			continue
		}
		steps, healthy := h.rv.ChainSteps(da)
		if !healthy || steps != 1 {
			h.t.Fatalf("theorem 1 violated: live PA %d -> dead DA %d has chain (steps=%d healthy=%v)",
				pa, da, steps, healthy)
		}
	}
	// Theorem 2: every unlinked reserved PA reaches a healthy block in at
	// most one step.
	for _, p := range h.rv.SparePAs() {
		da := h.lv.Map(p)
		steps, healthy := h.rv.ChainSteps(da)
		if !healthy || steps > 1 {
			h.t.Fatalf("theorem 2 violated: spare PA %d -> DA %d (steps=%d healthy=%v)",
				p, da, steps, healthy)
		}
	}
	// Loop blocks must not be mapped by any live software PA.
	for _, da := range linked {
		if !h.rv.OnLoop(da) {
			continue
		}
		p, ok := h.lv.Inverse(da)
		if !ok {
			continue
		}
		if !h.os.Retired(p) {
			h.t.Fatalf("PA-DA loop block %d is mapped by live PA %d", da, p)
		}
	}
}

// run drives n writes from g, verifying invariants periodically.
func (h *harness) run(g trace.Generator, n int, checkEvery int) int {
	performed := 0
	for i := 0; i < n; i++ {
		if !h.write(g.Next() % h.lv.NumPAs()) {
			break
		}
		performed++
		if checkEvery > 0 && i%checkEvery == 0 {
			h.verifyTheorems()
			h.verifyContent()
		}
	}
	return performed
}

func TestNewValidation(t *testing.T) {
	dev, _ := pcm.NewDevice(pcm.Config{
		NumBlocks: 65, BlockBytes: 64, CellsPerBlock: 512,
		MeanEndurance: 100, LifetimeCoV: 0.2, Seed: 1,
	})
	e, _ := ecc.NewECP(6, 65)
	be := &mc.Backend{Dev: dev, ECC: e}
	osm, _ := osmodel.New(64, 16)
	sg, _ := wear.NewStartGap(wear.StartGapConfig{NumPAs: 64, GapWritePeriod: 10, Seed: 1})

	if _, err := New(Config{PointerBytes: 128}, sg, be, osm); err == nil {
		t.Error("pointer larger than block accepted")
	}
	osmBig, _ := osmodel.New(128, 16)
	if _, err := New(Config{}, sg, be, osmBig); err == nil {
		t.Error("mismatched OS space accepted")
	}
	sgBig, _ := wear.NewStartGap(wear.StartGapConfig{NumPAs: 128, GapWritePeriod: 10, Seed: 1})
	osm128, _ := osmodel.New(128, 16)
	if _, err := New(Config{}, sgBig, be, osm128); err == nil {
		t.Error("leveler DA space larger than device accepted")
	}
	rv, err := New(Config{}, sg, be, osm)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Name() != "WL-Reviver" {
		t.Errorf("name = %q", rv.Name())
	}
}

func TestHealthyPathSingleAccess(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 64, endurance: 1e9, seed: 1})
	g, _ := trace.NewUniform(64, 1)
	h.run(g, 500, 100)
	st := h.rv.Stats()
	if st.SoftwareWrites == 0 {
		t.Fatal("no writes recorded")
	}
	if st.RequestAccesses != st.SoftwareWrites+st.SoftwareReads {
		t.Errorf("healthy chip should use exactly one access per request: %d accesses for %d requests",
			st.RequestAccesses, st.SoftwareWrites+st.SoftwareReads)
	}
	if st.PagesAcquired != 0 || st.LinksCreated != 0 {
		t.Error("no failures expected at 1e9 endurance")
	}
}

func TestFirstFailureAcquiresOnePage(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 400, seed: 2})
	g, _ := trace.NewUniform(256, 2)
	for i := 0; i < 2_000_000 && h.rv.Stats().PagesAcquired == 0; i++ {
		if !h.write(g.Next()) {
			t.Fatal("memory died before first acquisition")
		}
	}
	st := h.rv.Stats()
	if st.PagesAcquired == 0 {
		t.Fatal("no page ever acquired")
	}
	if h.os.RetiredPages() != st.PagesAcquired {
		t.Errorf("OS retired %d pages but reviver acquired %d", h.os.RetiredPages(), st.PagesAcquired)
	}
	// A 16-block page with 4-byte pointers: 16*16/17 = 15 shadows.
	if got := h.rv.AvailableSpares() + h.rv.LinkedFailures(); got > 15 {
		t.Errorf("spares+links = %d exceeds a page's shadow section", got)
	}
	h.verifyTheorems()
	h.verifyContent()
}

// The centrepiece: a long wear-out run under a skewed workload with
// failures accumulating, verifying the theorems and data integrity
// throughout.
func TestLongRunInvariantsStartGap(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 300, seed: 3})
	g, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: 256, PageBlocks: 16, TargetCoV: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	performed := h.run(g, 600_000, 2_000)
	st := h.rv.Stats()
	if st.LinksCreated == 0 {
		t.Error("expected failures to be linked during wear-out")
	}
	if st.PagesAcquired < 2 {
		t.Errorf("expected multiple page acquisitions, got %d", st.PagesAcquired)
	}
	if performed < 10_000 {
		t.Errorf("memory died suspiciously early: %d writes", performed)
	}
	t.Logf("writes=%d pages=%d links=%d switches=%d sacrifices=%d suspensions=%d dead=%d",
		performed, st.PagesAcquired, st.LinksCreated, st.ChainSwitches,
		st.SacrificedWrites, st.Suspensions, h.dev.DeadBlocks())
}

func TestLongRunInvariantsRegionedStartGap(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 300, seed: 14, regioned: true})
	g, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: 256, PageBlocks: 16, TargetCoV: 4, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.run(g, 600_000, 2_000)
	st := h.rv.Stats()
	if st.LinksCreated == 0 {
		t.Error("expected failures to be linked during wear-out")
	}
	t.Logf("regioned: pages=%d links=%d switches=%d dead=%d",
		st.PagesAcquired, st.LinksCreated, st.ChainSwitches, h.dev.DeadBlocks())
}

func TestLongRunInvariantsSecurityRefresh(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 300, seed: 4, securityRef: true})
	g, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: 256, PageBlocks: 16, TargetCoV: 4, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.run(g, 600_000, 2_000)
	st := h.rv.Stats()
	if st.LinksCreated == 0 {
		t.Error("expected failures to be linked during wear-out")
	}
	t.Logf("SR: pages=%d links=%d switches=%d suspensions=%d dead=%d",
		st.PagesAcquired, st.LinksCreated, st.ChainSwitches, st.Suspensions, h.dev.DeadBlocks())
}

// Migration-detected failures with an empty spare pool must suspend and
// then sacrifice the next software write (§III-A).
func TestSacrificeProtocol(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 200, seed: 5, gapPeriod: 4})
	g, _ := trace.NewUniform(256, 5)
	h.run(g, 600_000, 5_000)
	st := h.rv.Stats()
	if st.Suspensions == 0 {
		t.Skip("workload never suspended a migration; adjust parameters")
	}
	if st.SacrificedWrites == 0 {
		t.Error("suspensions occurred but no write was ever sacrificed")
	}
	t.Logf("suspensions=%d sacrifices=%d", st.Suspensions, st.SacrificedWrites)
}

func TestHammerAttackSurvives(t *testing.T) {
	// Hammering a handful of addresses should be absorbed by leveling +
	// revival: data must stay correct as blocks die under the hot spots.
	h := newHarness(t, harnessOpts{blocks: 128, blocksPerPage: 16, endurance: 500, seed: 6, gapPeriod: 4})
	g, err := trace.NewHammer(128, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	h.run(g, 400_000, 2_000)
	if h.dev.DeadBlocks() == 0 {
		t.Error("hammer should have killed blocks")
	}
}

func TestChainReductionKeepsOneStep(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 250, seed: 7})
	g, _ := trace.NewUniform(256, 7)
	h.run(g, 500_000, 1_000) // verifyTheorems asserts 1-step chains
	if h.rv.Stats().ChainSwitches == 0 {
		t.Log("note: no chain switch was ever needed in this run")
	}
}

func TestDisableChainReductionAblation(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 250, seed: 8, noReduce: true})
	g, _ := trace.NewUniform(256, 8)
	maxSteps := 0
	for i := 0; i < 500_000; i++ {
		if !h.write(g.Next()) {
			break
		}
		if i%5_000 == 0 && !h.rv.HasPending() {
			for _, da := range h.rv.LinkedDAs() {
				if s, healthy := h.rv.ChainSteps(da); healthy && s > maxSteps {
					maxSteps = s
				}
			}
			h.verifyContent() // data must stay correct even with long chains
		}
	}
	t.Logf("longest observed chain without reduction: %d steps", maxSteps)
}

func TestRemapCacheReducesAccesses(t *testing.T) {
	run := func(cacheKB int) (uint64, uint64) {
		h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 250, seed: 9, cacheKB: cacheKB})
		g, _ := trace.NewUniform(256, 9)
		h.run(g, 400_000, 10_000)
		st := h.rv.Stats()
		return st.RequestAccesses, st.SoftwareWrites + st.SoftwareReads
	}
	accNone, reqNone := run(0)
	accCache, reqCache := run(32)
	ratioNone := float64(accNone) / float64(reqNone)
	ratioCache := float64(accCache) / float64(reqCache)
	if ratioCache > ratioNone {
		t.Errorf("cache increased access ratio: %.4f with vs %.4f without", ratioCache, ratioNone)
	}
	if ratioCache > 1.05 {
		t.Errorf("cached access ratio %.4f implausibly high", ratioCache)
	}
	t.Logf("access ratio: %.4f uncached, %.4f cached", ratioNone, ratioCache)
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		h := newHarness(t, harnessOpts{blocks: 128, blocksPerPage: 16, endurance: 300, seed: 10})
		g, _ := trace.NewUniform(128, 10)
		h.run(g, 200_000, 0)
		return h.rv.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestIntrospectionHelpers(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 128, blocksPerPage: 16, endurance: 250, seed: 11})
	g, _ := trace.NewUniform(128, 11)
	for i := 0; i < 600_000 && h.rv.LinkedFailures() == 0; i++ {
		if !h.write(g.Next()) {
			break
		}
	}
	if h.rv.LinkedFailures() == 0 {
		t.Skip("no failure occurred")
	}
	found := false
	for _, da := range h.rv.LinkedDAs() {
		p, ok := h.rv.ShadowPA(da)
		if !ok {
			t.Fatalf("linked block %d has no ShadowPA", da)
		}
		d, ok := h.rv.InversePointer(p)
		if !ok || d != da {
			t.Fatalf("inverse pointer of PA %d is (%d,%v), want (%d,true)", p, d, ok, da)
		}
		found = true
	}
	if !found {
		t.Fatal("no linked failures to inspect")
	}
	if _, ok := h.rv.ShadowPA(99999); ok {
		t.Error("unknown DA should have no shadow")
	}
}

// Run the stack to complete exhaustion: every page retired. The harness
// must terminate cleanly rather than loop or panic.
func TestRunToExhaustion(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 16, endurance: 80, seed: 12, gapPeriod: 4})
	g, _ := trace.NewUniform(64, 12)
	for i := 0; i < 3_000_000; i++ {
		if !h.write(g.Next()) {
			break
		}
	}
	if h.os.UsablePages() > 0 {
		t.Logf("run ended with %d usable pages (did not fully exhaust)", h.os.UsablePages())
	}
}

// writeViaDeliver is Write without its healthy-block early return: the
// write goes through deliver from the start. It is the reference
// TestWriteDeathMatchesDeliver compares Write against, and assumes no
// delivery is suspended.
func writeViaDeliver(r *Reviver, pa, tag uint64) mc.WriteResult {
	r.st.SoftwareWrites++
	r.relocs = r.relocs[:0]
	r.lastWritePA = pa
	r.lastWriteOK = true
	accesses, needPA, _ := r.deliver(r.lv.Map(pa), tag, chainLink{}, false, remap{}, true, true)
	r.st.RequestAccesses += accesses
	if needPA {
		r.acquirePage(pa)
		return mc.WriteResult{Accesses: accesses, Retry: true}
	}
	return mc.WriteResult{Accesses: accesses}
}

// killOnNextWrite scripts the block at da to die on its next raw write.
func killOnNextWrite(h *harness, da uint64) {
	w0 := h.dev.Wear(pcm.BlockID(da))
	h.be.FailureHook = func(d, w uint64) bool { return d == da && w > w0 }
}

// TestWriteDeathMatchesDeliver pins the fall-through of Write's
// healthy-block early return. When the block dies under the early
// return's raw write, Write hands the block to deliver and charges the
// failed attempt's access. The outcome must match a write that went
// through deliver from the start: the same result, request counts,
// stats, checkpoint bytes and recovery copies. Two cases: the chip's
// first failure (no spares, so the page is acquired and the write
// retried), and a later one that links to a spare.
func TestWriteDeathMatchesDeliver(t *testing.T) {
	const pa = 5
	for _, tc := range []struct {
		name   string
		spares bool
	}{{"first failure", false}, {"with spares", true}} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() *harness {
				h := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 8, endurance: 1e12, seed: 3})
				for v := uint64(0); v < 64; v++ {
					h.write(v)
				}
				if tc.spares {
					killOnNextWrite(h, h.lv.Map(40))
					h.write(40)
					if h.rv.AvailableSpares() == 0 {
						t.Fatal("the first failure left no spares")
					}
				}
				if h.rv.HasPending() || h.be.Dead(h.lv.Map(pa)) {
					t.Fatal("set-up left a suspended delivery or a dead target")
				}
				killOnNextWrite(h, h.lv.Map(pa))
				return h
			}
			fast, ref := setup(), setup()
			const tag = 1 << 40
			got := fast.rv.Write(pa, tag)
			want := writeViaDeliver(ref.rv, pa, tag)
			if !fast.be.Dead(fast.lv.Map(pa)) {
				t.Fatal("the scripted failure did not fire")
			}
			if got.Retry != !tc.spares || got.Accesses < 1 {
				t.Fatalf("Write = %+v, want Retry %v and at least one access", got, !tc.spares)
			}
			if got != want {
				t.Errorf("Write = %+v, via deliver %+v", got, want)
			}
			gr, ga := fast.rv.RequestCounts()
			wr, wa := ref.rv.RequestCounts()
			if gr != wr || ga != wa {
				t.Errorf("RequestCounts = (%d, %d), via deliver (%d, %d)", gr, ga, wr, wa)
			}
			if fast.rv.Stats() != ref.rv.Stats() {
				t.Errorf("Stats = %+v, via deliver %+v", fast.rv.Stats(), ref.rv.Stats())
			}
			if !slices.Equal(fast.rv.LastRelocations(), ref.rv.LastRelocations()) {
				t.Errorf("LastRelocations = %v, via deliver %v", fast.rv.LastRelocations(), ref.rv.LastRelocations())
			}
			if !bytes.Equal(reviverState(fast.rv), reviverState(ref.rv)) {
				t.Error("SaveState bytes differ from the write through deliver")
			}
		})
	}
}

// reviverState returns rv's checkpoint bytes.
func reviverState(rv *Reviver) []byte {
	e := ckpt.NewEncoder()
	e.Begin("reviver")
	rv.SaveState(e)
	e.End()
	return e.Finish()
}
