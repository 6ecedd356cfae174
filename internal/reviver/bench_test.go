package reviver

import (
	"testing"

	"wlreviver/internal/rng"
	"wlreviver/internal/trace"
)

// BenchmarkChainArenaWalk measures a software read whose translation
// lands on a revived block, so every iteration walks the failure chain
// through the index-linked arena (shadow nodes in one slice, u32 next
// pointers) that replaced the per-node heap allocations. The harness is
// driven with scripted kills until chains form, then the deepest chain's
// entry PA is read repeatedly.
func BenchmarkChainArenaWalk(b *testing.B) {
	const blocks = 64
	// noReduce lets chains keep their full length (reduction would
	// collapse every walk to one hop), so the benchmark exercises a
	// genuine multi-node arena traversal.
	h := newHarness(b, harnessOpts{
		blocks: blocks, blocksPerPage: 8, endurance: 1e12, seed: 3, gapPeriod: 3,
		noReduce: true,
	})
	src := rng.New(9)
	killAt := make(map[uint64]uint64)
	for da := uint64(0); da < blocks+1; da++ {
		if src.Uint64n(64) < 20 {
			killAt[da] = 1 + src.Uint64n(40)
		}
	}
	h.be.FailureHook = func(da, wear uint64) bool {
		at, ok := killAt[da]
		return ok && wear >= at
	}
	g, err := trace.NewWeighted(trace.WeightedConfig{
		NumBlocks: blocks, PageBlocks: 8, TargetCoV: 2, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if !h.write(g.Next()) {
			break
		}
	}
	// Read through the deepest chain the run produced.
	bestPA, bestSteps := uint64(0), -1
	for pa := uint64(0); pa < blocks; pa++ {
		if steps, ok := h.rv.ChainSteps(h.lv.Map(pa)); ok && steps > bestSteps {
			bestPA, bestSteps = pa, steps
		}
	}
	if bestSteps < 1 {
		b.Fatalf("workload produced no chain to walk (best steps %d)", bestSteps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.rv.Read(bestPA)
	}
	b.ReportMetric(float64(bestSteps), "chain-steps")
}
