package reviver

import (
	"testing"

	"wlreviver/internal/rng"
	"wlreviver/internal/trace"
)

// degradedHarness drives a 64-block Start-Gap chip with scripted kills
// (a seeded fifth of the blocks die after a few dozen writes each) until
// failures are linked, drains any suspended delivery, and then removes
// the kill script so later writes cannot fail.
func degradedHarness(t testing.TB, seed uint64) *harness {
	t.Helper()
	const blocks = 64
	h := newHarness(t, harnessOpts{
		blocks: blocks, blocksPerPage: 8, endurance: 1e12, seed: 3, gapPeriod: 3,
	})
	src := rng.New(seed)
	killAt := make(map[uint64]uint64)
	for da := uint64(0); da < blocks+1; da++ {
		if src.Uint64n(64) < 12 {
			killAt[da] = 1 + src.Uint64n(40)
		}
	}
	h.be.FailureHook = func(da, wear uint64) bool {
		at, ok := killAt[da]
		return ok && wear >= at
	}
	g, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: blocks, PageBlocks: 8, TargetCoV: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if !h.write(g.Next()) {
			t.Fatal("memory exhausted while linking failures")
		}
	}
	for retries := 0; h.rv.HasPending() && retries < 50; retries++ {
		h.write(g.Next())
	}
	if h.rv.HasPending() {
		t.Fatal("suspended delivery never drained")
	}
	h.be.FailureHook = nil
	return h
}

// TestRevivedWriteAllocs pins the revived request path at zero
// allocations: a software write or read whose DA sits on a linked chain
// resolves each hop through the dense arena indexes and walks in the
// Reviver's reusable path buffer. Failure bookkeeping (linking a fresh
// failure, acquiring a page) may allocate; walking an already-linked
// chain may not.
func TestRevivedWriteAllocs(t *testing.T) {
	h := degradedHarness(t, 11)
	if h.rv.LinkedFailures() == 0 {
		t.Fatal("scripted kills linked no failures")
	}
	pa, found := uint64(0), false
	for p := uint64(0); p < h.lv.NumPAs() && !found; p++ {
		if h.os.Retired(p) {
			continue
		}
		if steps, healthy := h.rv.ChainSteps(h.lv.Map(p)); healthy && steps >= 1 {
			pa, found = p, true
		}
	}
	if !found {
		t.Fatal("no software PA translates onto a linked chain")
	}
	tag := uint64(1) << 40
	writes := testing.AllocsPerRun(1000, func() {
		tag++
		if res := h.rv.Write(pa, tag); res.Retry {
			t.Fatalf("write to PA %d on a linked chain was retried", pa)
		}
	})
	if writes != 0 {
		t.Errorf("revived write allocates %.2f objects, want 0", writes)
	}
	reads := testing.AllocsPerRun(1000, func() {
		if got, _ := h.rv.Read(pa); got != tag {
			t.Fatalf("revived read of PA %d = %d, want %d", pa, got, tag)
		}
	})
	if reads != 0 {
		t.Errorf("revived read allocates %.2f objects, want 0", reads)
	}

	// A write to a healthy block takes Write's early return, which must
	// not allocate either.
	healthy, found := uint64(0), false
	for p := uint64(0); p < h.lv.NumPAs() && !found; p++ {
		if h.os.Retired(p) {
			continue
		}
		if steps, ok := h.rv.ChainSteps(h.lv.Map(p)); ok && steps == 0 {
			healthy, found = p, true
		}
	}
	if !found {
		t.Fatal("no software PA translates onto a healthy block")
	}
	healthyWrites := testing.AllocsPerRun(1000, func() {
		tag++
		if res := h.rv.Write(healthy, tag); res.Retry || res.Accesses != 1 {
			t.Fatalf("healthy write to PA %d = %+v, want one access", healthy, res)
		}
	})
	if healthyWrites != 0 {
		t.Errorf("healthy write allocates %.2f objects, want 0", healthyWrites)
	}
}
