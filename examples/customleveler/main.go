// Custom leveler: the paper's central claim is that WL-Reviver revives
// ANY wear-leveling scheme, interacting with it only through its data
// migrations. This example makes that concrete by implementing a
// wear-leveling scheme the paper never saw — a table-based random-swap
// leveler — and running it under the framework without changing a line
// of WL-Reviver.
//
// RandomSwap keeps an explicit permutation table (something the in-PCM
// schemes avoid for cost reasons, but a perfectly legal Leveler) and,
// every ψ writes, swaps the device locations of two physical addresses.
// The framework only sees Swap calls; failures under the swaps are
// hidden exactly as they are for Start-Gap and Security Refresh.
package main

import (
	"fmt"
	"log"

	"wlreviver"
)

// RandomSwap is a toy wear-leveling scheme with an explicit PA→DA table.
// It implements wlreviver.Leveler and nothing else — exactly what a
// scheme designer would write.
type RandomSwap struct {
	perm   []uint64 // pa -> da
	inv    []uint64 // da -> pa
	period uint64
	writes uint64
	tick   uint64
}

// NewRandomSwap builds the scheme over n blocks, swapping one pair every
// period writes.
func NewRandomSwap(n, period uint64) *RandomSwap {
	s := &RandomSwap{
		perm:   make([]uint64, n),
		inv:    make([]uint64, n),
		period: period,
	}
	for i := uint64(0); i < n; i++ {
		s.perm[i] = i
		s.inv[i] = i
	}
	return s
}

// Name implements wlreviver.Leveler.
func (s *RandomSwap) Name() string { return "random-swap" }

// NumPAs implements wlreviver.Leveler.
func (s *RandomSwap) NumPAs() uint64 { return uint64(len(s.perm)) }

// NumDAs implements wlreviver.Leveler: swap-based schemes need no buffer
// block.
func (s *RandomSwap) NumDAs() uint64 { return uint64(len(s.perm)) }

// Map implements wlreviver.Leveler.
func (s *RandomSwap) Map(pa uint64) uint64 { return s.perm[pa] }

// Inverse implements wlreviver.Leveler.
func (s *RandomSwap) Inverse(da uint64) (uint64, bool) { return s.inv[da], true }

// NoteWrite implements wlreviver.Leveler: every period writes, pick two
// addresses deterministically and exchange their device locations. The
// Swap call goes out BEFORE the table update, per the Mover contract.
func (s *RandomSwap) NoteWrite(_ uint64, mover wlreviver.Mover) {
	s.writes++
	if s.writes < s.period {
		return
	}
	s.writes = 0
	s.tick++
	n := uint64(len(s.perm))
	pa1 := s.tick % n
	// A splitmix-style hash picks the partner pseudo-randomly.
	z := s.tick * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	pa2 := (z ^ (z >> 27)) % n
	if pa1 == pa2 {
		return
	}
	da1, da2 := s.perm[pa1], s.perm[pa2]
	mover.Swap(da1, da2)
	s.perm[pa1], s.perm[pa2] = da2, da1
	s.inv[da1], s.inv[da2] = pa2, pa1
}

func main() {
	cfg := wlreviver.DefaultConfig()
	cfg.Blocks = 1 << 12
	cfg.BlocksPerPage = 16
	cfg.MeanEndurance = 2_000
	lev := NewRandomSwap(cfg.Blocks, 16)
	cfg.CustomLeveler = lev

	workload, err := wlreviver.NewWorkload(wlreviver.WorkloadSpec{Kind: wlreviver.WorkloadSkewed, Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, CoV: 10, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := wlreviver.New(cfg, workload)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running custom scheme %q under WL-Reviver\n\n", lev.Name())
	fmt.Println("writes/block  survival  usable  failures-hidden")
	for sys.UsableFraction() > 0.7 && sys.WritesPerBlock() < 4000 {
		if sys.RunN(1<<19) == 0 {
			break
		}
		hidden := 0
		if rv, ok := sys.Reviver(); ok {
			hidden = rv.LinkedFailures()
		}
		fmt.Printf("%12.1f  %8.4f  %6.4f  %15d\n",
			sys.WritesPerBlock(), sys.SurvivalRate(), sys.UsableFraction(), hidden)
	}
	fmt.Println("\nthe framework revived a scheme it had never seen — no adaptation needed")
}
