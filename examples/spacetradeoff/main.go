// Space trade-off: the paper's Figure 7 experiment as an interactive
// study. FREE-p must pre-reserve spare space — too little and the slots
// run out early (the wear-leveling scheme then dies with the next
// failure); too much and the usable capacity is reduced from day one.
// WL-Reviver reserves nothing up front and acquires retired pages only
// as failures demand, so it dominates every static choice.
//
// The program sweeps reservations under a skewed (mg) and a uniform
// (ocean) workload and prints, for each, when usable capacity crosses
// 90%, 80% and 70%.
package main

import (
	"fmt"
	"log"

	"wlreviver"
)

const (
	blocks    = 1 << 13
	endurance = 2_500
)

func main() {
	for _, workload := range []string{"ocean", "mg"} {
		fmt.Printf("workload %s — writes/block at which usable capacity falls to:\n", workload)
		fmt.Printf("  %-14s %8s %8s %8s\n", "scheme", "90%", "80%", "70%")
		schemes := []struct {
			label   string
			prot    wlreviver.ProtectorKind
			reserve float64
		}{
			{"WL-Reviver", wlreviver.ProtectorWLReviver, 0},
			{"FREE-p 0%", wlreviver.ProtectorFREEp, 0},
			{"FREE-p 5%", wlreviver.ProtectorFREEp, 0.05},
			{"FREE-p 10%", wlreviver.ProtectorFREEp, 0.10},
			{"FREE-p 15%", wlreviver.ProtectorFREEp, 0.15},
		}
		for _, s := range schemes {
			cfg := wlreviver.DefaultConfig()
			cfg.Blocks = blocks
			cfg.BlocksPerPage = 32
			cfg.MeanEndurance = endurance
			cfg.GapWritePeriod = 50
			cfg.Protector = s.prot
			cfg.FreepReserveFraction = s.reserve
			gen, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: workload, Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: 3})
			if err != nil {
				log.Fatal(err)
			}
			sys, err := wlreviver.New(cfg, gen)
			if err != nil {
				log.Fatal(err)
			}
			crossings := map[float64]float64{0.9: -1, 0.8: -1, 0.7: -1}
			for sys.UsableFraction() > 0.65 && sys.WritesPerBlock() < 6000 {
				if sys.RunN(1<<15) == 0 {
					break
				}
				u := sys.UsableFraction()
				for level, at := range crossings {
					if at < 0 && u <= level {
						crossings[level] = sys.WritesPerBlock()
					}
				}
			}
			fmt.Printf("  %-14s %8s %8s %8s\n", s.label,
				fmtCross(crossings[0.9]), fmtCross(crossings[0.8]), fmtCross(crossings[0.7]))
		}
		fmt.Println()
	}
}

// fmtCross renders a crossing point, or "-" if never crossed.
func fmtCross(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}
