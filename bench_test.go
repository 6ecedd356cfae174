package wlreviver

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`), reporting
// the headline numbers as custom benchmark metrics so regressions in the
// result *shapes* are visible, not just runtime. EXPERIMENTS.md records
// a reference run against the paper. Benches default to the tiny scale
// to stay fast; cmd/paper runs the same experiments at larger scales.

import (
	"fmt"
	"runtime"
	"testing"

	"wlreviver/internal/lls"
	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

// benchScale returns the scale benches run at. Experiments fan out over
// all CPUs; results are identical to serial runs (the sim package's
// parallel-vs-serial equivalence test enforces it), so the reported
// result metrics are unaffected.
func benchScale() Scale {
	s := TinyScale()
	s.Workers = runtime.NumCPU()
	return s
}

// BenchmarkTable1_WorkloadCoV regenerates Table I: synthetic benchmark
// generators calibrated to the paper's write CoVs.
func BenchmarkTable1_WorkloadCoV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, row := range res.Rows {
			if row.Name == "mg" {
				continue // saturates at tiny scale (sample CoV ceiling)
			}
			rel := (row.MeasuredCoV - row.PaperCoV) / row.PaperCoV
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
		b.ReportMetric(worst*100, "worst-CoV-err-%")
	}
}

// BenchmarkFig5_LifetimeTo30PctFailed regenerates Figure 5: writes until
// 30% capacity loss, ECP6-SG vs ECP6-SG-WLR, all eight benchmarks.
func BenchmarkFig5_LifetimeTo30PctFailed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		minGain, maxGain := 1e18, 0.0
		for _, row := range res.Rows {
			if row.ImprovementPct < minGain {
				minGain = row.ImprovementPct
			}
			if row.ImprovementPct > maxGain {
				maxGain = row.ImprovementPct
			}
		}
		b.ReportMetric(minGain, "min-WLR-gain-%")
		b.ReportMetric(maxGain, "max-WLR-gain-%")
	}
}

// BenchmarkFig6_SurvivalCurves regenerates Figure 6: capacity-survival
// curves for ocean and mg under ECP6/PAYG × {-, SG, SG+WLR}.
func BenchmarkFig6_SurvivalCurves(b *testing.B) {
	for _, workload := range []string{"ocean", "mg"} {
		b.Run(workload, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := CurveFigure(benchScale(), "fig6", workload)
				if err != nil {
					b.Fatal(err)
				}
				life := map[string]float64{}
				for _, c := range res.Curves {
					life[c.Name] = c.Points[len(c.Points)-1].X
				}
				b.ReportMetric(life["ECP6-SG-WLR"]/life["ECP6-SG"], "WLR-lifetime-x")
			}
		})
	}
}

// BenchmarkFig7_FreepReservation regenerates Figure 7: WLR vs FREE-p
// with 0/5/10/15% pre-reserved space.
func BenchmarkFig7_FreepReservation(b *testing.B) {
	for _, workload := range []string{"ocean", "mg"} {
		b.Run(workload, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := CurveFigure(benchScale(), "fig7", workload)
				if err != nil {
					b.Fatal(err)
				}
				wlrEnd, bestFreep := 0.0, 0.0
				for _, c := range res.Curves {
					end := c.Points[len(c.Points)-1].X
					if c.Name == "WL-Reviver" {
						wlrEnd = end
					} else if end > bestFreep {
						bestFreep = end
					}
				}
				b.ReportMetric(wlrEnd/bestFreep, "WLR-vs-best-FREEp-x")
			}
		})
	}
}

// BenchmarkFig8_LLSUsableSpace regenerates Figure 8: WLR vs LLS
// software-usable space.
func BenchmarkFig8_LLSUsableSpace(b *testing.B) {
	for _, workload := range []string{"ocean", "mg"} {
		b.Run(workload, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := CurveFigure(benchScale(), "fig8", workload)
				if err != nil {
					b.Fatal(err)
				}
				wlr, lls := res.Curves[0], res.Curves[1]
				b.ReportMetric(
					wlr.Points[len(wlr.Points)-1].X/lls.Points[len(lls.Points)-1].X,
					"WLR-vs-LLS-lifetime-x")
			}
		})
	}
}

// BenchmarkTable2_AccessTimeAndSpace regenerates Table II: access time
// (32 KB remap cache) and usable space at 10/20/30% failed blocks.
func BenchmarkTable2_AccessTimeAndSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table2(benchScale(), []string{"mg", "ocean"})
		if err != nil {
			b.Fatal(err)
		}
		var worstAccess float64
		var wlrSpace30 float64
		for _, c := range res.Cells {
			if c.AccessTime > worstAccess {
				worstAccess = c.AccessTime
			}
			if c.Scheme == "WL-Reviver" && c.FailureRatio == 0.30 && c.Workload == "mg" && c.Reached {
				wlrSpace30 = c.UsableSpacePct
			}
		}
		b.ReportMetric(worstAccess, "worst-access-time")
		b.ReportMetric(wlrSpace30, "WLR-space-at-30%-%")
	}
}

// ---- ablations (DESIGN.md §3) ------------------------------------------------

// ablationRun drives one configured system to the usable floor and
// returns (writes/block, access ratio). Ablations run at the bench scale
// (not tiny) so the compared arms have enough resolution to differ.
func ablationRun(b *testing.B, mutate func(*Config)) (float64, float64) {
	b.Helper()
	s := BenchScale()
	cfg := DefaultConfig()
	cfg.Blocks = s.Blocks
	cfg.BlocksPerPage = s.BlocksPerPage
	cfg.MeanEndurance = s.MeanEndurance
	cfg.GapWritePeriod = s.GapWritePeriod
	cfg.Seed = s.Seed
	if mutate != nil {
		mutate(&cfg)
	}
	gen, err := NewWorkload(WorkloadSpec{Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	budget := uint64(s.MaxWritesPerBlock * float64(s.Blocks))
	for sys.Writes() < budget && sys.UsableFraction() > 0.7 {
		if sys.RunN(1<<12) == 0 {
			break
		}
	}
	return sys.WritesPerBlock(), sys.AccessRatio()
}

// BenchmarkAblation_ChainSwitching isolates the one-step-chain invariant:
// without reduction, chains grow and every failed-block access walks them.
func BenchmarkAblation_ChainSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, withRatio := ablationRun(b, nil)
		_, withoutRatio := ablationRun(b, func(c *Config) { c.DisableChainReduction = true })
		b.ReportMetric(withRatio, "access-ratio-reduced")
		b.ReportMetric(withoutRatio, "access-ratio-unreduced")
	}
}

// BenchmarkAblation_InversePointerSection varies the stored pointer size:
// larger pointers shrink a page's shadow section (fewer spares per
// acquisition) in exchange for wider addressability.
func BenchmarkAblation_InversePointerSection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		life4, _ := ablationRun(b, func(c *Config) { c.RevPointerBytes = 4 })
		life16, _ := ablationRun(b, func(c *Config) { c.RevPointerBytes = 16 })
		b.ReportMetric(life4, "lifetime-4B-ptr")
		b.ReportMetric(life16, "lifetime-16B-ptr")
	}
}

// BenchmarkAblation_AcquisitionPolicy compares the paper's delayed
// (sacrificed-write) acquisition with the rejected immediate-interrupt
// design.
func BenchmarkAblation_AcquisitionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lifeDelayed, _ := ablationRun(b, nil)
		lifeImmediate, _ := ablationRun(b, func(c *Config) { c.ImmediateAcquisition = true })
		b.ReportMetric(lifeDelayed, "lifetime-delayed")
		b.ReportMetric(lifeImmediate, "lifetime-immediate")
	}
}

// BenchmarkAblation_RestrictedRandomizer isolates LLS's half-space
// randomization restriction: the same Start-Gap + WLR stack with the
// full Feistel vs the restricted permutation, under skewed writes.
func BenchmarkAblation_RestrictedRandomizer(b *testing.B) {
	s := BenchScale()
	runWith := func(restricted bool) float64 {
		cfg := DefaultConfig()
		cfg.Blocks = s.Blocks
		cfg.BlocksPerPage = s.BlocksPerPage
		cfg.MeanEndurance = s.MeanEndurance
		cfg.GapWritePeriod = s.GapWritePeriod
		cfg.Seed = s.Seed
		if restricted {
			rnd, err := lls.NewRestrictedRandomizer(cfg.Blocks, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			sg, err := wear.NewStartGap(wear.StartGapConfig{
				NumPAs: cfg.Blocks, GapWritePeriod: cfg.GapWritePeriod, Randomizer: rnd,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg.CustomLeveler = sg
		}
		gen, err := NewWorkload(WorkloadSpec{Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: cfg.Seed})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := New(cfg, gen)
		if err != nil {
			b.Fatal(err)
		}
		budget := uint64(s.MaxWritesPerBlock * float64(s.Blocks))
		for sys.Writes() < budget && sys.UsableFraction() > 0.7 {
			if sys.RunN(1<<12) == 0 {
				break
			}
		}
		return sys.WritesPerBlock()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(runWith(false), "lifetime-full-feistel")
		b.ReportMetric(runWith(true), "lifetime-restricted")
	}
}

// BenchmarkAblation_LevelerUnderWLR demonstrates framework generality:
// Start-Gap vs Security Refresh, both revived by WL-Reviver.
func BenchmarkAblation_LevelerUnderWLR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lifeSG, _ := ablationRun(b, nil)
		lifeSR, _ := ablationRun(b, func(c *Config) { c.Leveler = LevelerSecurityRefresh })
		b.ReportMetric(lifeSG, "lifetime-startgap")
		b.ReportMetric(lifeSR, "lifetime-securityrefresh")
	}
}

// ---- parallel runner ----------------------------------------------------------

// BenchmarkFig6_ByWorkers measures the experiment fan-out: the same six
// Figure 6 engines driven serially and across all CPUs. The ratio of the
// two is the wall-clock speedup the worker pool buys on this machine.
func BenchmarkFig6_ByWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := TinyScale()
			s.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := CurveFigure(s, "fig6", "ocean"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6_ByShards measures the intra-engine shard pool: the same
// Figure 6 experiment on an 8-shard grid, engines serial (workers=1) so
// all parallelism comes from within each engine, at -shards 1 and
// NumCPU. The ratio of the two is the single-device speedup sharding
// buys on this machine; the simulated results are byte-identical across
// the rows (enforced by the sim package's sharding equivalence tests).
func BenchmarkFig6_ByShards(b *testing.B) {
	for _, shards := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := TinyScale()
			s.Workers = 1
			s.ShardGrid = 8
			s.Shards = shards
			for i := 0; i < b.N; i++ {
				if _, err := CurveFigure(s, "fig6", "ocean"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- hot-path microbenchmarks -------------------------------------------------

// BenchmarkEngineStepHealthy measures the per-write cost of the full
// stack before any failure.
func BenchmarkEngineStepHealthy(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 16
	cfg.MeanEndurance = 1e12 // never fails within the bench
	gen, err := trace.NewUniform(cfg.Blocks, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := sim.NewEngine(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepDegraded measures the per-write cost on a chip with
// substantial hidden failures (chain redirections in play).
func BenchmarkEngineStepDegraded(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.BlocksPerPage = 16
	cfg.MeanEndurance = 1500
	cfg.GapWritePeriod = 50
	gen, err := trace.NewUniform(cfg.Blocks, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchStepDegraded(b, cfg, gen)
}

// BenchmarkEngineStepDegradedOcean measures the per-write cost in the
// regime the paper sweep spends its time in: bench geometry driven by
// Table I's ocean through the alias sampler, on a chip pre-degraded to
// 10% dead blocks.
func BenchmarkEngineStepDegradedOcean(b *testing.B) {
	s := sim.BenchScale()
	cfg := DefaultConfig()
	cfg.Blocks = s.Blocks
	cfg.BlocksPerPage = s.BlocksPerPage
	cfg.MeanEndurance = s.MeanEndurance
	cfg.GapWritePeriod = s.GapWritePeriod
	cfg.Seed = s.Seed
	gen, err := trace.NewBenchmark("ocean", cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	benchStepDegraded(b, cfg, gen)
}

// benchStepDegraded times Step on an engine over cfg and gen that was
// first driven to 10% dead blocks.
func benchStepDegraded(b *testing.B, cfg Config, gen trace.Generator) {
	degraded := func() *sim.Engine {
		e, err := sim.NewEngine(cfg, gen)
		if err != nil {
			b.Fatal(err)
		}
		for e.Device().DeadBlocks() < e.Device().NumBlocks()/10 {
			if !e.Step() {
				b.Fatal("memory died during warmup")
			}
		}
		return e
	}
	e := degraded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			// The chip died mid-measurement; restart on a fresh one so
			// every counted iteration is a real degraded-path write.
			b.StopTimer()
			e = degraded()
			b.StartTimer()
		}
	}
}

// BenchmarkEngineRunN measures the batched write loop the experiment
// runners sit in (runCurve drives checkEvery-write batches through RunN).
func BenchmarkEngineRunN(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 16
	cfg.MeanEndurance = 1e12 // never fails within the bench
	gen, err := trace.NewUniform(cfg.Blocks, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := sim.NewEngine(cfg, gen)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1 << 10
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := uint64(batch)
		if rem := b.N - i; rem < batch {
			n = uint64(rem)
		}
		if e.RunN(n) != n {
			b.Fatal("engine stopped mid-bench")
		}
	}
}

// BenchmarkWorkloadNext isolates the generator draw that feeds every
// simulated write (alias-method sampling for benchmark workloads).
func BenchmarkWorkloadNext(b *testing.B) {
	gen, err := NewWorkload(WorkloadSpec{Kind: "mg", Blocks: 1 << 16, PageBlocks: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next()
	}
}
