package wlreviver_test

import (
	"fmt"

	"wlreviver"
)

// The smallest end-to-end use: build a system, wear it out a little, read
// the health metrics.
func Example() {
	cfg := wlreviver.DefaultConfig()
	cfg.Blocks = 1 << 10
	cfg.BlocksPerPage = 16
	cfg.MeanEndurance = 1e9 // effectively indestructible for this demo
	cfg.Seed = 1

	workload, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadUniform, Blocks: cfg.Blocks, Seed: 1})
	if err != nil {
		panic(err)
	}
	sys, err := wlreviver.New(cfg, workload)
	if err != nil {
		panic(err)
	}
	sys.RunN(100_000)
	fmt.Printf("writes=%d survival=%.2f usable=%.2f\n",
		sys.Writes(), sys.SurvivalRate(), sys.UsableFraction())
	// Output: writes=100000 survival=1.00 usable=1.00
}

// Workloads calibrated to the paper's Table I benchmarks: any Table I
// name is a valid WorkloadSpec.Kind.
func ExampleNewWorkload() {
	for _, name := range wlreviver.BenchmarkNames()[:3] {
		w, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: name, Blocks: 1 << 12, PageBlocks: 64, Seed: 1})
		if err != nil {
			panic(err)
		}
		fmt.Println(w.Name())
	}
	// Output:
	// blackscholes
	// streamcluster
	// swaptions
}

// Comparing protection frameworks on the same workload: WL-Reviver keeps
// the chip usable long after the unprotected stack has collapsed.
func ExampleConfig() {
	lifetime := func(p wlreviver.ProtectorKind) float64 {
		cfg := wlreviver.DefaultConfig()
		cfg.Blocks = 1 << 10
		cfg.BlocksPerPage = 16
		cfg.MeanEndurance = 600
		cfg.GapWritePeriod = 20
		cfg.Protector = p
		w, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: 42})
		if err != nil {
			panic(err)
		}
		sys, err := wlreviver.New(cfg, w)
		if err != nil {
			panic(err)
		}
		for sys.UsableFraction() > 0.7 {
			if sys.RunN(1<<12) == 0 {
				break
			}
		}
		return sys.WritesPerBlock()
	}
	bare := lifetime(wlreviver.ProtectorNone)
	revived := lifetime(wlreviver.ProtectorWLReviver)
	fmt.Printf("WL-Reviver extends lifetime: %v\n", revived > 2*bare)
	// Output: WL-Reviver extends lifetime: true
}

// levelerOps is a custom sink: Observer's two methods, counting the
// wear-leveling scheme's remapping events by kind and ignoring the rest.
type levelerOps map[wlreviver.EventKind]uint64

func (c levelerOps) Event(e wlreviver.Event) {
	switch e.Kind {
	case wlreviver.EventGapMoved, wlreviver.EventRegionSwapped,
		wlreviver.EventDecoderRemapped, wlreviver.EventPageRelocated:
		c[e.Kind]++
	}
}

func (levelerOps) Snapshot(wlreviver.Snapshot) {}

// A custom Observer sees every leveler's remaps through one Event
// method; the kind tells them apart.
func ExampleObserver() {
	for _, lv := range []wlreviver.LevelerKind{wlreviver.LevelerStartGap, wlreviver.LevelerSecurityRefresh} {
		cfg := wlreviver.DefaultConfig()
		cfg.Blocks = 1 << 10
		cfg.BlocksPerPage = 16
		cfg.MeanEndurance = 1e9
		cfg.Seed = 1
		cfg.Leveler = lv
		ops := levelerOps{}
		cfg.Observer = ops
		w, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadUniform, Blocks: cfg.Blocks, Seed: 1})
		if err != nil {
			panic(err)
		}
		sys, err := wlreviver.New(cfg, w)
		if err != nil {
			panic(err)
		}
		sys.RunN(100_000)
		for kind, n := range ops {
			fmt.Println(kind, n)
		}
	}
	// Output:
	// gap_moved 1000
	// region_swapped 500
}
