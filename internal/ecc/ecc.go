// Package ecc implements the error-correction substrates the paper
// evaluates underneath wear leveling: ECP (Error-Correcting Pointers,
// Schechter et al., ISCA'10) and PAYG (Pay-As-You-Go, Qureshi, MICRO'11).
//
// The simulator models correction capacity rather than bit patterns: the
// PCM device reports cell failures per block, and the scheme decides when
// a block's failures exceed what its (local plus, for PAYG, pooled)
// metadata can correct. At that point the block is declared dead and
// higher layers (WL-Reviver, FREE-p, LLS) take over.
package ecc

import (
	"fmt"

	"wlreviver/internal/bitset"
	"wlreviver/internal/pcm"
)

// Scheme is an error-correction policy for a device.
type Scheme interface {
	// Name identifies the scheme in reports ("ECP6", "PAYG", ...).
	Name() string
	// Absorb accounts newFailures fresh cell failures on block b and
	// reports whether the block is still correctable. Once it returns
	// false for a block, subsequent calls for that block return false.
	Absorb(b pcm.BlockID, newFailures int) bool
	// MetadataBitsPerBlock reports the average metadata overhead in bits
	// per block (per 512-bit group in the paper's terms), for the
	// space-overhead comparisons (ECP6: 61, PAYG default: 19.5).
	MetadataBitsPerBlock() float64
}

// ECP corrects up to Capacity failed cells per block by pointing
// replacement cells at them. ECP6 (61 bits per 512-bit group) is the
// paper's base scheme; ECP1 is PAYG's local layer.
//
// Cell failures are rare relative to the block count for most of a run,
// so correction usage is a sparse map and the dead flags a bitset rather
// than dense per-block arrays.
type ECP struct {
	name      string  // ckpt:skip construction-time label
	capacity  int     // ckpt:skip construction-time capacity, fingerprinted by the engine
	bits      float64 // ckpt:skip construction-time overhead constant
	numBlocks uint64  // ckpt:skip construction-time geometry, fingerprinted by the engine
	used      map[uint64]uint16
	deadFlag  bitset.Bits
}

// NewECP returns an ECP scheme with the given per-block capacity for a
// device of numBlocks blocks. Metadata bits follow the ECP paper's
// formula for a 512-bit group: n pointers of 9 bits, n replacement bits,
// and one "full" bit.
func NewECP(capacity int, numBlocks uint64) (*ECP, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("ecc: negative ECP capacity %d", capacity)
	}
	return &ECP{
		name:      fmt.Sprintf("ECP%d", capacity),
		capacity:  capacity,
		bits:      float64(capacity*10 + 1),
		numBlocks: numBlocks,
		used:      make(map[uint64]uint16),
		deadFlag:  bitset.New(numBlocks),
	}, nil
}

// Name implements Scheme.
func (e *ECP) Name() string { return e.name }

// MetadataBitsPerBlock implements Scheme.
func (e *ECP) MetadataBitsPerBlock() float64 { return e.bits }

// Absorb implements Scheme.
func (e *ECP) Absorb(b pcm.BlockID, newFailures int) bool {
	if e.deadFlag.Test(uint64(b)) {
		return false
	}
	u := e.used[uint64(b)] + uint16(newFailures)
	e.used[uint64(b)] = u
	if int(u) > e.capacity {
		e.deadFlag.Set(uint64(b))
		return false
	}
	return true
}

// Used returns the number of corrections consumed on block b.
func (e *ECP) Used(b pcm.BlockID) int { return int(e.used[uint64(b)]) }

// PAYGConfig parameterises the Pay-As-You-Go hierarchy.
type PAYGConfig struct {
	// LocalCapacity is the per-block local correction capacity
	// (paper default: ECP1, i.e. 1).
	LocalCapacity int
	// SetBlocks is the number of blocks sharing one global pool
	// (the PAYG paper groups lines into sets).
	SetBlocks int
	// SetEntries is the number of pooled correction entries per set.
	SetEntries int
	// OverflowEntries is the size of the chip-wide overflow pool shared
	// by all sets once their local pools are exhausted.
	OverflowEntries int
	// EntryBits is the metadata cost of one pooled entry (pointer +
	// replacement cell + tag), used only for overhead reporting.
	EntryBits float64
}

// DefaultPAYGConfig returns the paper's setting: ECP1 locally and an
// average of 19.5 metadata bits per 512-bit group. With an 11-bit local
// layer and 13-bit pooled entries (9-bit pointer, 1 replacement bit,
// ~3-bit tag amortised), the remaining 8.5 bits/block budget buys
// SetBlocks*8.5/13 pooled entries per set plus a 10% overflow pool.
func DefaultPAYGConfig(numBlocks uint64) PAYGConfig {
	const (
		budgetPerBlock = 19.5
		localBits      = 11.0
		entryBits      = 13.0
		setBlocks      = 64
	)
	perSetBudget := float64(setBlocks) * (budgetPerBlock - localBits) / entryBits
	perSet := int(perSetBudget)
	sets := int((numBlocks + setBlocks - 1) / setBlocks)
	return PAYGConfig{
		LocalCapacity:   1,
		SetBlocks:       setBlocks,
		SetEntries:      perSet,
		OverflowEntries: sets * perSet / 10,
		EntryBits:       entryBits,
	}
}

// Validate reports whether the configuration is usable.
func (c PAYGConfig) Validate() error {
	switch {
	case c.LocalCapacity < 0:
		return fmt.Errorf("ecc: negative PAYG local capacity")
	case c.SetBlocks <= 0:
		return fmt.Errorf("ecc: PAYG SetBlocks must be positive")
	case c.SetEntries < 0:
		return fmt.Errorf("ecc: negative PAYG SetEntries")
	case c.OverflowEntries < 0:
		return fmt.Errorf("ecc: negative PAYG OverflowEntries")
	}
	return nil
}

// PAYG implements Pay-As-You-Go error correction: a small local layer per
// block plus dynamically allocated pooled entries. A block dies when a
// cell failure arrives and neither its local layer, its set pool, nor the
// overflow pool has a free entry.
type PAYG struct {
	cfg       PAYGConfig // ckpt:skip construction-time config, fingerprinted by the engine
	numBlocks uint64     // ckpt:skip construction-time geometry, fingerprinted by the engine

	localUsed map[uint64]uint16
	setFree   []int32
	overflow  int64
	deadFlag  bitset.Bits

	pooledUsed uint64
}

// NewPAYG builds a PAYG scheme for numBlocks blocks.
func NewPAYG(cfg PAYGConfig, numBlocks uint64) (*PAYG, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := (numBlocks + uint64(cfg.SetBlocks) - 1) / uint64(cfg.SetBlocks)
	p := &PAYG{
		cfg:       cfg,
		numBlocks: numBlocks,
		localUsed: make(map[uint64]uint16),
		setFree:   make([]int32, sets),
		overflow:  int64(cfg.OverflowEntries),
		deadFlag:  bitset.New(numBlocks),
	}
	for i := range p.setFree {
		p.setFree[i] = int32(cfg.SetEntries)
	}
	return p, nil
}

// Name implements Scheme.
func (p *PAYG) Name() string { return "PAYG" }

// MetadataBitsPerBlock implements Scheme.
func (p *PAYG) MetadataBitsPerBlock() float64 {
	local := float64(p.cfg.LocalCapacity*10 + 1)
	sets := float64(len(p.setFree))
	pooled := (sets*float64(p.cfg.SetEntries) + float64(p.cfg.OverflowEntries)) *
		p.cfg.EntryBits / float64(p.numBlocks)
	return local + pooled
}

// Absorb implements Scheme.
func (p *PAYG) Absorb(b pcm.BlockID, newFailures int) bool {
	if p.deadFlag.Test(uint64(b)) {
		return false
	}
	for i := 0; i < newFailures; i++ {
		if int(p.localUsed[uint64(b)]) < p.cfg.LocalCapacity {
			p.localUsed[uint64(b)]++
			continue
		}
		set := uint64(b) / uint64(p.cfg.SetBlocks)
		if p.setFree[set] > 0 {
			p.setFree[set]--
			p.pooledUsed++
			continue
		}
		if p.overflow > 0 {
			p.overflow--
			p.pooledUsed++
			continue
		}
		p.deadFlag.Set(uint64(b))
		return false
	}
	return true
}

// PooledUsed returns the number of pooled entries consumed so far.
func (p *PAYG) PooledUsed() uint64 { return p.pooledUsed }

// OverflowLeft returns the remaining overflow-pool entries.
func (p *PAYG) OverflowLeft() int64 { return p.overflow }

// verify interface compliance.
var (
	_ Scheme = (*ECP)(nil)
	_ Scheme = (*PAYG)(nil)
)
