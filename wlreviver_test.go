package wlreviver

import (
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 10
	cfg.BlocksPerPage = 16
	cfg.MeanEndurance = 800
	cfg.GapWritePeriod = 20
	w, err := NewWorkload(WorkloadSpec{Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunN(300_000)
	if sys.SurvivalRate() > 1 || sys.SurvivalRate() <= 0 {
		t.Errorf("survival %v out of range", sys.SurvivalRate())
	}
	if sys.UsableFraction() > 1 || sys.UsableFraction() < 0 {
		t.Errorf("usable %v out of range", sys.UsableFraction())
	}
	if sys.Writes() == 0 {
		t.Error("no writes serviced")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if _, err := NewWorkload(WorkloadSpec{Kind: WorkloadUniform, Blocks: 64, Seed: 1}); err != nil {
		t.Error(err)
	}
	if _, err := NewWorkload(WorkloadSpec{Kind: WorkloadSkewed, Blocks: 64, PageBlocks: 16, CoV: 5, Seed: 1}); err != nil {
		t.Error(err)
	}
	if _, err := NewWorkload(WorkloadSpec{Kind: WorkloadHammer, Blocks: 64, Targets: []uint64{1, 2}}); err != nil {
		t.Error(err)
	}
	if _, err := NewWorkload(WorkloadSpec{Kind: WorkloadBirthday, Blocks: 64, SetSize: 4, Burst: 100, Seed: 1}); err != nil {
		t.Error(err)
	}
	if _, err := NewWorkload(WorkloadSpec{Kind: "nope", Blocks: 64, PageBlocks: 16, Seed: 1}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	names := BenchmarkNames()
	if len(names) != 8 {
		t.Errorf("benchmarks = %v", names)
	}
}

func TestExperimentFacade(t *testing.T) {
	s := TinyScale()
	t1, err := Table1(s)
	if err != nil || len(t1.Rows) != 8 {
		t.Fatalf("Table1: %v", err)
	}
	if !strings.Contains(t1.String(), "ocean") {
		t.Error("Table1 formatting")
	}
	// The heavier presets have dedicated shape tests in internal/sim;
	// here just confirm the facade compiles against their signatures.
	if _, err := CurveFigure(s, "fig8", "ocean"); err != nil {
		t.Fatalf("Fig8: %v", err)
	}
}

func TestScalesDistinct(t *testing.T) {
	if TinyScale().Blocks >= BenchScale().Blocks || BenchScale().Blocks >= PaperScale().Blocks {
		t.Error("scales should be ordered tiny < bench < paper")
	}
}
