package ecc

import (
	"math"
	"testing"
	"testing/quick"

	"wlreviver/internal/pcm"
)

func TestECPBasics(t *testing.T) {
	e, err := NewECP(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "ECP6" {
		t.Errorf("name = %q", e.Name())
	}
	if e.MetadataBitsPerBlock() != 61 {
		t.Errorf("ECP6 metadata = %v bits, want 61", e.MetadataBitsPerBlock())
	}
	// 6 failures absorbed, 7th kills.
	for i := 0; i < 6; i++ {
		if !e.Absorb(0, 1) {
			t.Fatalf("failure %d should be correctable", i+1)
		}
	}
	if e.Used(0) != 6 {
		t.Errorf("used = %d, want 6", e.Used(0))
	}
	if e.Absorb(0, 1) {
		t.Error("7th failure should kill an ECP6 block")
	}
	if e.Absorb(0, 0) {
		t.Error("dead block must stay dead even with zero new failures")
	}
	// Other blocks unaffected.
	if !e.Absorb(1, 1) {
		t.Error("block 1 should be healthy")
	}
}

func TestECPBatchFailures(t *testing.T) {
	e, _ := NewECP(6, 4)
	if e.Absorb(2, 7) {
		t.Error("7 simultaneous failures should kill ECP6")
	}
	e2, _ := NewECP(6, 4)
	if !e2.Absorb(2, 6) {
		t.Error("6 simultaneous failures should be fine")
	}
}

func TestECPZeroCapacity(t *testing.T) {
	e, _ := NewECP(0, 2)
	if !e.Absorb(0, 0) {
		t.Error("no failures is always fine")
	}
	if e.Absorb(0, 1) {
		t.Error("ECP0 cannot correct anything")
	}
	if e.MetadataBitsPerBlock() != 1 {
		t.Errorf("ECP0 metadata = %v, want 1 (full bit)", e.MetadataBitsPerBlock())
	}
}

func TestECPNegativeCapacity(t *testing.T) {
	if _, err := NewECP(-1, 2); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestPAYGLocalThenPool(t *testing.T) {
	cfg := PAYGConfig{LocalCapacity: 1, SetBlocks: 4, SetEntries: 2, OverflowEntries: 1, EntryBits: 13}
	p, err := NewPAYG(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Block 0: local(1) + set pool(2) + overflow(1) = 4 correctable failures.
	for i := 0; i < 4; i++ {
		if !p.Absorb(0, 1) {
			t.Fatalf("failure %d should be correctable", i+1)
		}
	}
	if p.PooledUsed() != 3 {
		t.Errorf("pooled used = %d, want 3", p.PooledUsed())
	}
	if p.OverflowLeft() != 0 {
		t.Errorf("overflow left = %d, want 0", p.OverflowLeft())
	}
	if p.Absorb(0, 1) {
		t.Error("5th failure should kill the block")
	}
	// Block 1 shares set 0's pool, which is now empty, and overflow is
	// gone: local only.
	if !p.Absorb(1, 1) {
		t.Error("block 1 local layer should absorb one")
	}
	if p.Absorb(1, 1) {
		t.Error("block 1 second failure should die: pools empty")
	}
	// Block 4 is in set 1 with its own pool.
	if !p.Absorb(4, 3) {
		t.Error("block 4 should use set 1's fresh pool")
	}
}

func TestPAYGDeadStaysDead(t *testing.T) {
	cfg := PAYGConfig{LocalCapacity: 0, SetBlocks: 2, SetEntries: 0, OverflowEntries: 0}
	p, _ := NewPAYG(cfg, 4)
	if p.Absorb(0, 1) {
		t.Fatal("should die immediately with zero capacity")
	}
	if p.Absorb(0, 0) {
		t.Error("dead block revived")
	}
}

func TestPAYGConfigValidate(t *testing.T) {
	bad := []PAYGConfig{
		{LocalCapacity: -1, SetBlocks: 1},
		{SetBlocks: 0},
		{SetBlocks: 1, SetEntries: -1},
		{SetBlocks: 1, OverflowEntries: -1},
	}
	for i, c := range bad {
		if _, err := NewPAYG(c, 4); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultPAYGBudget(t *testing.T) {
	const blocks = 1 << 16
	cfg := DefaultPAYGConfig(blocks)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPAYG(cfg, blocks)
	if err != nil {
		t.Fatal(err)
	}
	bits := p.MetadataBitsPerBlock()
	// Paper: ~19.5 bits per group on average, under 1/3 of ECP6's 61.
	if bits < 15 || bits > 25 {
		t.Errorf("PAYG metadata = %v bits/block, want ~19.5", bits)
	}
	if bits >= 61.0/3.0+5 {
		t.Errorf("PAYG metadata %v should be well under ECP6's", bits)
	}
}

// Property: for any interleaving of failures across blocks, the total
// correctable failures never exceeds local*blocks + set pools + overflow.
func TestQuickPAYGConservation(t *testing.T) {
	f := func(seq []uint8) bool {
		cfg := PAYGConfig{LocalCapacity: 1, SetBlocks: 4, SetEntries: 3, OverflowEntries: 2}
		const blocks = 8
		p, err := NewPAYG(cfg, blocks)
		if err != nil {
			return false
		}
		absorbed := 0
		for _, s := range seq {
			if p.Absorb(pcm.BlockID(s%blocks), 1) {
				absorbed++
			}
		}
		// capacity: 8 local + 2 sets * 3 + 2 overflow = 16
		return absorbed <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// PAYG should postpone the first dead block versus ECP with comparable or
// smaller budget, under uniform wear: drive two identical devices and
// compare the wear level at which the first block dies.
func TestPAYGPostponesFirstFailureVsSmallECP(t *testing.T) {
	mkDevice := func() *pcm.Device {
		d, err := pcm.NewDevice(pcm.Config{
			NumBlocks: 256, BlockBytes: 64, CellsPerBlock: 512,
			MeanEndurance: 2000, LifetimeCoV: 0.2, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	firstDeath := func(s Scheme, d *pcm.Device) uint64 {
		for round := uint64(1); round < 4000; round++ {
			for b := uint64(0); b < d.NumBlocks(); b++ {
				nf := d.Write(pcm.BlockID(b))
				if nf > 0 && !s.Absorb(pcm.BlockID(b), nf) {
					return round
				}
			}
		}
		return math.MaxUint64
	}
	ecp1, _ := NewECP(1, 256)
	ecpDeath := firstDeath(ecp1, mkDevice())
	payg, _ := NewPAYG(DefaultPAYGConfig(256), 256)
	paygDeath := firstDeath(payg, mkDevice())
	if paygDeath <= ecpDeath {
		t.Errorf("PAYG first death at round %d, ECP1 at %d; pooling should postpone it",
			paygDeath, ecpDeath)
	}
}
