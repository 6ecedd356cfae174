// Package mc holds the memory-controller plumbing shared by the failure-
// protection frameworks (WL-Reviver, FREE-p, LLS): the raw write path
// that combines device wear with error correction, and the Protector
// interface through which the simulation engine drives them.
package mc

import (
	"wlreviver/internal/ecc"
	"wlreviver/internal/obs"
	"wlreviver/internal/pcm"
	"wlreviver/internal/wear"
)

// Backend couples the PCM device with an error-correction scheme: every
// raw write wears the target block, feeds fresh cell failures to the ECC
// scheme, and declares the block dead when correction capacity is
// exceeded.
type Backend struct {
	Dev *pcm.Device
	ECC ecc.Scheme
	// FailureHook, when non-nil, is consulted on every raw write after
	// wear is applied; returning true forces the block to be declared
	// dead regardless of the ECC scheme. It exists so tests can script
	// exact failure times (see reviver's scenario tests); production
	// stacks leave it nil.
	FailureHook func(da, wear uint64) bool
	// Observer, when non-nil, receives a BlockFailed event each time a
	// block is declared dead on this write path. The backend is the sole
	// place blocks die outside tests, so this single probe is authoritative.
	Observer obs.Observer
}

// WriteRaw performs one raw block write at da. It returns false when the
// block is dead after the write — either it was already dead or this
// write pushed it beyond correction capacity (in the latter case the
// written data is considered lost, as in the paper's failure model).
func (b *Backend) WriteRaw(da uint64) bool {
	// Failure-horizon fast path: while the device guarantees no cell can
	// fail on this write and the block is alive, there is nothing for the
	// failure hook or the ECC layer to observe — the entire dead/ECC
	// bookkeeping collapses into one branch.
	if b.FailureHook == nil && b.Dev.WriteNoFail(pcm.BlockID(da)) {
		return true
	}
	if b.Dev.Dead(pcm.BlockID(da)) {
		b.Dev.Write(pcm.BlockID(da)) // the attempt still wears the cells
		return false
	}
	nf := b.Dev.Write(pcm.BlockID(da))
	if b.FailureHook != nil && b.FailureHook(da, b.Dev.Wear(pcm.BlockID(da))) {
		b.markDead(da)
		return false
	}
	if nf > 0 && !b.ECC.Absorb(pcm.BlockID(da), nf) {
		b.markDead(da)
		return false
	}
	return true
}

// markDead declares block da uncorrectable and emits the BlockFailed
// event with the block's wear at death.
func (b *Backend) markDead(da uint64) {
	b.Dev.MarkDead(pcm.BlockID(da))
	if b.Observer != nil {
		b.Observer.Event(obs.Event{Kind: obs.BlockFailed, A: da, B: b.Dev.Wear(pcm.BlockID(da))})
	}
}

// ReadRaw performs one raw block read at da.
func (b *Backend) ReadRaw(da uint64) {
	b.Dev.Read(pcm.BlockID(da))
}

// Dead reports whether block da has been declared uncorrectable.
func (b *Backend) Dead(da uint64) bool { return b.Dev.Dead(pcm.BlockID(da)) }

// WriteResult reports the outcome of a software-issued write through a
// Protector. It is two words so it comes back in registers: Go returns
// results of at most 32 bytes in registers and spills larger ones to the
// stack, which the engine then reloads on every simulated write.
type WriteResult struct {
	// Accesses is the number of raw PCM accesses the request consumed
	// (Table II's metric numerator).
	Accesses uint64
	// Retry is set when the write was reported to the OS as failed
	// (really or as a sacrifice) and must be re-issued by the caller at
	// the freshly translated address.
	Retry bool
}

// Protector mediates every access between the address-mapping layer and
// the raw device, hiding failed blocks. It also implements wear.Mover so
// wear-leveling migrations flow through the same redirection.
type Protector interface {
	wear.Mover
	// Name identifies the framework in reports.
	Name() string
	// Write services a software-issued write of tag to physical address
	// pa (tag is the logical content for data-integrity checking; zero
	// when content tracking is off).
	Write(pa, tag uint64) WriteResult
	// Read services a software-issued read of pa, returning the logical
	// content tag and the raw accesses used.
	Read(pa uint64) (tag uint64, accesses uint64)
	// ResumePending completes any wear-leveling operation that was
	// suspended awaiting spare-space acquisition, returning the raw
	// accesses used. Callers invoke it after every write.
	ResumePending() uint64
	// RequestCounts returns the cumulative software requests (writes
	// plus reads) and the raw PCM accesses they consumed, the numerator
	// and denominator of Table II's access-time metric.
	RequestCounts() (requests, accesses uint64)
}

// SpaceReporter is implemented by protectors that can report how much of
// the chip remains usable by software — the y-axis of the paper's
// Figures 7 and 8 and Table II's space column.
type SpaceReporter interface {
	// SoftwareUsableFraction returns the fraction of the chip's capacity
	// software can still use (excluding failed, reserved and retired
	// space).
	SoftwareUsableFraction() float64
}

// Crippler is implemented by protectors that can lose their ability to
// support wear leveling (a failure reached the wear-leveling scheme and,
// per the paper's premise, the scheme ceased to function). The engine
// stops pacing the leveler once Crippled returns true.
type Crippler interface {
	Crippled() bool
}
