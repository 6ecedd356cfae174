package mc

import (
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/wear"
)

// Passthrough is the no-protection baseline: accesses go straight to the
// device, and the first failure that reaches the wear-leveling scheme
// cripples it (the paper's premise — Start-Gap and Security Refresh
// cease to function with a single block failure in their space). Failed
// writes are reported to the OS, which retires the page and relocates
// its data to a donor — so concentrated write traffic chases the
// relocations from page to page, serially failing fresh blocks and
// shrinking the memory ("the OS would ... ultimately be misled to
// believe that all memory blocks fail", §I-B). This cascade is what the
// paper's lifetime comparisons measure against.
type Passthrough struct {
	lv wear.Leveler   // ckpt:skip wiring; the leveler checkpoints itself
	be *Backend       // ckpt:skip wiring; the backend checkpoints itself
	os *osmodel.Model // ckpt:skip wiring; the OS model checkpoints itself

	crippled     bool
	requests     uint64
	reqAccesses  uint64
	lostWrites   uint64
	firstFailure uint64 // request index of the first exposed failure
}

// NewPassthrough builds the baseline protector.
func NewPassthrough(lv wear.Leveler, be *Backend, os *osmodel.Model) *Passthrough {
	return &Passthrough{lv: lv, be: be, os: os}
}

// Name implements Protector.
func (p *Passthrough) Name() string { return "none" }

// Crippled implements Crippler.
func (p *Passthrough) Crippled() bool { return p.crippled }

// FirstFailureAt returns the request index at which the first failure
// was exposed (0 if none yet).
func (p *Passthrough) FirstFailureAt() uint64 { return p.firstFailure }

// Write implements Protector. A write that fails (the target block is or
// becomes dead) is reported to the OS: the page retires, its live data
// is relocated to a donor, and the caller retries at the fresh
// translation. Any failure also cripples the wear-leveling scheme.
func (p *Passthrough) Write(pa, tag uint64) WriteResult {
	p.requests++
	p.reqAccesses++
	da := p.lv.Map(pa)
	if p.be.WriteRaw(da) {
		if p.be.Dev.TracksContent() {
			p.be.Dev.SetContent(pcm.BlockID(da), tag)
		}
		return WriteResult{Accesses: 1}
	}
	p.lostWrites++
	p.expose()
	p.relocate(pa)
	return WriteResult{Accesses: 1, Retry: true}
}

// relocate performs the OS's standard page retirement and recovery copy.
func (p *Passthrough) relocate(pa uint64) {
	_, relocs := p.os.ReportFailure(pa)
	for _, rc := range relocs {
		src := p.lv.Map(rc.OldPA)
		if p.be.Dead(src) {
			continue // unrecoverable block
		}
		p.be.ReadRaw(src)
		dst := p.lv.Map(rc.NewPA)
		if !p.be.WriteRaw(dst) {
			p.expose()
			continue
		}
		if p.be.Dev.TracksContent() {
			p.be.Dev.SetContent(pcm.BlockID(dst), p.be.Dev.Content(pcm.BlockID(src)))
		}
	}
}

// LostWrites returns the number of failed (and reported) writes.
func (p *Passthrough) LostWrites() uint64 { return p.lostWrites }

// expose marks the wear-leveling scheme as non-functional.
func (p *Passthrough) expose() {
	if !p.crippled {
		p.crippled = true
		p.firstFailure = p.requests
	}
}

// Read implements Protector.
func (p *Passthrough) Read(pa uint64) (uint64, uint64) {
	p.requests++
	p.reqAccesses++
	da := p.lv.Map(pa)
	p.be.ReadRaw(da)
	if p.be.Dead(da) {
		return 0, 1 // data lost
	}
	return p.be.Dev.Content(pcm.BlockID(da)), 1
}

// ResumePending implements Protector; nothing ever suspends.
func (p *Passthrough) ResumePending() uint64 { return 0 }

// Migrate implements wear.Mover.
func (p *Passthrough) Migrate(src, dst uint64) {
	if p.be.Dead(src) || p.be.Dead(dst) {
		p.expose()
		return
	}
	p.be.ReadRaw(src)
	if !p.be.WriteRaw(dst) {
		p.expose()
		return
	}
	if p.be.Dev.TracksContent() {
		p.be.Dev.SetContent(pcm.BlockID(dst), p.be.Dev.Content(pcm.BlockID(src)))
	}
}

// Swap implements wear.Mover.
func (p *Passthrough) Swap(a, b uint64) {
	if p.be.Dead(a) || p.be.Dead(b) {
		p.expose()
		return
	}
	p.be.ReadRaw(a)
	p.be.ReadRaw(b)
	ta := p.be.Dev.Content(pcm.BlockID(a))
	tb := p.be.Dev.Content(pcm.BlockID(b))
	okA := p.be.WriteRaw(a)
	okB := p.be.WriteRaw(b)
	if !okA || !okB {
		p.expose()
		return
	}
	if p.be.Dev.TracksContent() {
		p.be.Dev.SetContent(pcm.BlockID(a), tb)
		p.be.Dev.SetContent(pcm.BlockID(b), ta)
	}
}

// SoftwareUsableFraction implements SpaceReporter: the fraction of
// pages the OS has not retired (there is no framework to hide failures,
// so every exposed failure costs a whole page).
func (p *Passthrough) SoftwareUsableFraction() float64 {
	return p.os.UsableFraction()
}

// RequestCounts implements Protector.
func (p *Passthrough) RequestCounts() (requests, accesses uint64) {
	return p.requests, p.reqAccesses
}

var (
	_ Protector     = (*Passthrough)(nil)
	_ Crippler      = (*Passthrough)(nil)
	_ SpaceReporter = (*Passthrough)(nil)
)
