// Command wlsim runs a single configurable PCM wear-out simulation and
// reports its lifetime metrics — the generic entry point for exploring
// the design space beyond the paper's fixed experiments.
//
// Example:
//
//	wlsim -blocks 65536 -endurance 10000 -leveler SG -protector WLR \
//	      -workload mg -writes 50000000 -curve
//
// The -leveler, -protector and -ecc values are the schemes' display
// names, the same ones wlserved's device spec takes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wlreviver"
	"wlreviver/internal/sim"
	"wlreviver/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wlsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		blocks    = flag.Uint64("blocks", 1<<16, "software capacity in 64B blocks")
		pageBlk   = flag.Uint64("page-blocks", 64, "OS page size in blocks (a power of two)")
		endurance = flag.Float64("endurance", 1e4, "mean cell endurance in writes")
		cov       = flag.Float64("lifetime-cov", 0.2, "cell lifetime CoV")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		leveler   = flag.String("leveler", "SG", "wear leveling: SG, SR, SG-R, WFR, SW, none")
		psi       = flag.Uint64("psi", 100, "writes per wear-leveling operation")
		srInner   = flag.Uint64("sr-inner", 1, "security-refresh inner regions (power of two)")
		protector = flag.String("protector", "WLR", "framework: WLR, FREE-p, LLS, none")
		reserve   = flag.Float64("freep-reserve", 0.05, "FREE-p pre-reserved fraction")
		eccName   = flag.String("ecc", "ECP6", "error correction: ECP6, ECP1, PAYG")
		cacheKB   = flag.Int("cache-kb", 0, "remap cache size in KB (0 = none)")
		workload  = flag.String("workload", "uniform", "workload: uniform, one of the Table I names, cov:<x>, hammer:<a,b,..>, birthday:<set>x<burst>")
		writes    = flag.Uint64("writes", 10_000_000, "write budget")
		floor     = flag.Float64("floor", 0.5, "stop when usable space falls to this fraction")
		curve     = flag.Bool("curve", false, "print the usable-space curve")
	)
	flag.Parse()

	cfg := wlreviver.DefaultConfig()
	cfg.Blocks = *blocks
	cfg.BlocksPerPage = *pageBlk
	cfg.MeanEndurance = *endurance
	cfg.LifetimeCoV = *cov
	cfg.Seed = *seed
	cfg.GapWritePeriod = *psi
	cfg.SRInnerRegions = *srInner
	cfg.FreepReserveFraction = *reserve
	cfg.CacheKB = *cacheKB
	cfg.LLSChunkPages = maxU64(1, *blocks/16 / *pageBlk)

	var err error
	if cfg.Leveler, err = sim.ParseLevelerKind(*leveler); err != nil {
		return err
	}
	if cfg.Protector, err = sim.ParseProtectorKind(*protector); err != nil {
		return err
	}
	if cfg.ECC, err = sim.ParseECCKind(*eccName); err != nil {
		return err
	}

	gen, err := buildWorkload(*workload, cfg, *seed)
	if err != nil {
		return err
	}
	e, err := sim.NewEngine(cfg, gen)
	if err != nil {
		return err
	}

	var c stats.Curve
	c.Append(0, e.UsableFraction())
	const sampleEvery = 1 << 12
	for e.Writes() < *writes {
		advanced := false
		for i := 0; i < sampleEvery; i++ {
			if !e.Step() {
				break
			}
			advanced = true
		}
		c.Append(e.WritesPerBlock(), e.UsableFraction())
		if !advanced || e.UsableFraction() <= *floor {
			break
		}
	}

	fmt.Printf("system: %s + %s + %s, %d blocks, workload %s\n",
		cfg.ECC, cfg.Leveler, cfg.Protector, cfg.Blocks, gen.Name())
	fmt.Printf("writes serviced:    %d (%.1f per block)\n", e.Writes(), e.WritesPerBlock())
	fmt.Printf("survival rate:      %.4f\n", e.SurvivalRate())
	fmt.Printf("usable space:       %.4f\n", e.UsableFraction())
	fmt.Printf("dead blocks:        %d / %d\n", e.Device().DeadBlocks(), e.Device().NumBlocks())
	fmt.Printf("retired pages:      %d / %d\n", e.OS().RetiredPages(), e.OS().NumPages())
	wearCounts := e.Device().WearCounts()
	fmt.Printf("wear CoV:           %.4f\n", stats.CoVOfCounts(wearCounts))
	printWearQuantiles(wearCounts)
	if r := e.AccessRatio(); r > 0 {
		fmt.Printf("accesses/request:   %.4f\n", r)
	}
	fmt.Printf("crippled:           %v\n", e.Crippled())
	if rv, ok := e.Reviver(); ok {
		st := rv.Stats()
		fmt.Printf("reviver: pages=%d links=%d switches=%d sacrifices=%d suspensions=%d\n",
			st.PagesAcquired, st.LinksCreated, st.ChainSwitches, st.SacrificedWrites, st.Suspensions)
	}
	if *curve {
		fmt.Println("\nwrites/block  usable")
		for _, p := range c.Points {
			fmt.Printf("%12.1f  %.4f\n", p.X, p.Y)
		}
	}
	return nil
}

// printWearQuantiles summarises the per-block wear distribution.
func printWearQuantiles(counts []uint64) {
	var maxWear float64
	for _, c := range counts {
		if float64(c) > maxWear {
			maxWear = float64(c)
		}
	}
	if maxWear == 0 {
		return
	}
	h := stats.NewHistogram(0, maxWear+1, 256)
	for _, c := range counts {
		h.Add(float64(c))
	}
	fmt.Printf("wear quantiles:     p10=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
		h.Quantile(0.10), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), maxWear)
}

// buildWorkload parses the -workload flag.
func buildWorkload(spec string, cfg wlreviver.Config, seed uint64) (wlreviver.Workload, error) {
	switch {
	case spec == "uniform":
		return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadUniform, Blocks: cfg.Blocks, Seed: seed})
	case strings.HasPrefix(spec, "cov:"):
		cov, err := strconv.ParseFloat(spec[len("cov:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("bad cov workload %q: %w", spec, err)
		}
		return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadSkewed, Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, CoV: cov, Seed: seed})
	case strings.HasPrefix(spec, "hammer:"):
		var targets []uint64
		for _, part := range strings.Split(spec[len("hammer:"):], ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad hammer target %q: %w", part, err)
			}
			targets = append(targets, v)
		}
		return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadHammer, Blocks: cfg.Blocks, Targets: targets})
	case strings.HasPrefix(spec, "birthday:"):
		var set int
		var burst uint64
		if _, err := fmt.Sscanf(spec[len("birthday:"):], "%dx%d", &set, &burst); err != nil {
			return nil, fmt.Errorf("bad birthday workload %q (want birthday:<set>x<burst>): %w", spec, err)
		}
		return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadBirthday, Blocks: cfg.Blocks, SetSize: set, Burst: burst, Seed: seed})
	default:
		return wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: spec, Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: seed})
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
