// Quickstart: build a small PCM system with Start-Gap wear leveling and
// the WL-Reviver framework, wear it out under a skewed workload, and
// watch the framework keep the memory alive past its first failures.
package main

import (
	"fmt"
	"log"

	"wlreviver"
)

func main() {
	cfg := wlreviver.DefaultConfig()
	cfg.Blocks = 1 << 14      // 1 MiB chip (16k blocks of 64 B)
	cfg.MeanEndurance = 5_000 // scaled endurance so wear-out is quick
	cfg.GapWritePeriod = 100  // Start-Gap's psi
	cfg.CacheKB = 32          // remap cache as in the paper's Table II

	// The "mg" workload is the paper's most skewed benchmark (write CoV
	// 40.87): exactly the traffic that kills unprotected PCM early.
	workload, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{
		Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Attach the standard metrics observer: it counts every lifecycle
	// event (block failures, revivals, leveler moves, ...) and samples a
	// cross-layer Snapshot every SnapshotEvery simulated writes.
	// Observation is passive — the run is byte-identical without it.
	metrics := wlreviver.NewMetrics()
	cfg.Observer = metrics
	cfg.SnapshotEvery = 4 << 20 // one sample per 4M writes

	sys, err := wlreviver.New(cfg, workload)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("writes/block  survival  usable  dead-blocks  retired-pages")
	for i := 0; i < 40; i++ {
		sys.RunN(1 << 20)
		fmt.Printf("%12.1f  %8.4f  %6.4f  %11d  %13d\n",
			sys.WritesPerBlock(), sys.SurvivalRate(), sys.UsableFraction(),
			sys.Device().DeadBlocks(), sys.OS().RetiredPages())
		if sys.UsableFraction() < 0.7 || sys.Stopped() {
			break
		}
	}

	if rv, ok := sys.Reviver(); ok {
		st := rv.Stats()
		fmt.Printf("\nWL-Reviver activity: %d pages acquired, %d failures hidden, "+
			"%d chain switches, %d sacrificed writes\n",
			st.PagesAcquired, st.LinksCreated, st.ChainSwitches, st.SacrificedWrites)
		fmt.Printf("average PCM accesses per request: %.4f (1.0 = no overhead)\n", sys.AccessRatio())
	}

	// The same accumulator is reachable from the system itself.
	if m, ok := sys.Metrics(); ok {
		fmt.Printf("\nobserved events: %v\n", m.Counters())
		if last, ok := m.LastSnapshot(); ok {
			fmt.Printf("last snapshot: %.0f writes/block, survival %.4f, wear CoV %.3f\n",
				last.WritesPerBlock, last.SurvivalRate, last.WearCoV)
		}
	}
}
