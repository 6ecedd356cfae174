// Attack resilience: the wear-leveling literature's malicious write
// patterns — single-address hammering and Seznec's birthday-paradox
// attack — against Start-Gap alone (which dies with its first block
// failure) and Start-Gap revived by WL-Reviver.
//
// The output shows the attacker's writes-per-block budget needed to take
// 30% of the memory's capacity: with WL-Reviver the scheme keeps
// redistributing the attack even as blocks die, multiplying the cost of
// the attack.
package main

import (
	"fmt"
	"log"

	"wlreviver"
)

const (
	blocks    = 1 << 13
	endurance = 2_000
	maxWrites = 200_000_000
)

func main() {
	attacks := []struct {
		name string
		make func() (wlreviver.Workload, error)
	}{
		{"hammer-1 (one hot line)", func() (wlreviver.Workload, error) {
			return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadHammer, Blocks: blocks, Targets: []uint64{42}})
		}},
		{"hammer-8 (hot set of 8)", func() (wlreviver.Workload, error) {
			return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadHammer, Blocks: blocks, Targets: []uint64{1, 2, 3, 4, 5, 6, 7, 8}})
		}},
		{"birthday-16x4096", func() (wlreviver.Workload, error) {
			return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadBirthday, Blocks: blocks, SetSize: 16, Burst: 4096, Seed: 99})
		}},
	}

	fmt.Println("attack                      scheme        writes/block to 30% capacity loss")
	for _, atk := range attacks {
		for _, variant := range []struct {
			label string
			prot  wlreviver.Config
		}{
			{"Start-Gap", protCfg(wlreviver.ProtectorNone)},
			{"SG + WLR", protCfg(wlreviver.ProtectorWLReviver)},
		} {
			w, err := atk.make()
			if err != nil {
				log.Fatal(err)
			}
			sys, err := wlreviver.New(variant.prot, w)
			if err != nil {
				log.Fatal(err)
			}
			for sys.Writes() < maxWrites && sys.UsableFraction() > 0.70 {
				if sys.RunN(1<<16) == 0 {
					break
				}
			}
			outcome := fmt.Sprintf("%.0f", sys.WritesPerBlock())
			if sys.UsableFraction() > 0.70 {
				outcome = fmt.Sprintf(">%.0f (survived the budget)", sys.WritesPerBlock())
			}
			fmt.Printf("%-27s %-12s  %s\n", atk.name, variant.label, outcome)
		}
	}
}

// protCfg builds the shared system config with the given protector.
func protCfg(p wlreviver.ProtectorKind) wlreviver.Config {
	cfg := wlreviver.DefaultConfig()
	cfg.Blocks = blocks
	cfg.BlocksPerPage = 32
	cfg.MeanEndurance = endurance
	cfg.GapWritePeriod = 50
	cfg.Protector = p
	return cfg
}
