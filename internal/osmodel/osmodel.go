// Package osmodel models the only operating-system behaviour WL-Reviver
// relies on (paper §III-A): when the memory reports an access error, the
// OS discontinues use of the page associated with the error, relocating
// the page's live data elsewhere. No other OS support is assumed — no
// explicit reservation calls, no new interrupt types.
//
// The model maintains a virtual→physical page table for the software's
// address space. Retiring a physical page remaps its virtual page onto a
// surviving donor page (the OS's recovery copy), shrinking
// software-usable capacity; the retired page's physical addresses become
// invisible to software, which is exactly the implicit reservation
// WL-Reviver exploits.
//
// A retirement bitmap — one bit per page, set at most once in the chip's
// lifetime — records which pages are out of use so the knowledge survives
// reboot (paper §III-A); it can be serialised and reloaded.
package osmodel

import (
	"fmt"
	"math/bits"

	"wlreviver/internal/obs"
)

// Relocation describes one block's OS-driven recovery copy when its page
// is retired: the data at OldPA is rewritten at NewPA.
type Relocation struct {
	OldPA uint64
	NewPA uint64
}

// Model is the OS page-management model. It addresses memory in blocks;
// a page is BlocksPerPage consecutive blocks (64 for 4 KB pages of 64 B
// blocks), a power of two, so translation is a shift and a mask.
type Model struct {
	blocksPerPage uint64 // ckpt:skip construction-time geometry, fingerprinted by the engine
	pageShift     uint64 // ckpt:skip construction-time geometry, log2(blocksPerPage)
	pageMask      uint64 // ckpt:skip construction-time geometry, blocksPerPage-1
	numPages      uint64 // ckpt:skip construction-time geometry, validated on restore

	virtToPhys []uint32 // virtual page -> physical page
	retired    []bool
	retiredCnt uint64
	donorCur   uint64 // round-robin cursor for choosing donor pages

	// ckpt:skip runtime wiring, reattached after restore
	observer obs.Observer // nil unless attached; PageRetired probe
}

// New builds a model covering numBlocks blocks with pages of
// blocksPerPage blocks. blocksPerPage must be a power of two (real page
// and block sizes are; the paper's 4 KB/64 B page holds 64 blocks), and
// numBlocks a multiple of it.
func New(numBlocks, blocksPerPage uint64) (*Model, error) {
	if blocksPerPage == 0 || blocksPerPage&(blocksPerPage-1) != 0 {
		return nil, fmt.Errorf("osmodel: blocksPerPage %d must be a power of two", blocksPerPage)
	}
	if numBlocks == 0 || numBlocks%blocksPerPage != 0 {
		return nil, fmt.Errorf("osmodel: numBlocks %d must be a positive multiple of page size %d",
			numBlocks, blocksPerPage)
	}
	numPages := numBlocks / blocksPerPage
	if numPages > 1<<32 {
		return nil, fmt.Errorf("osmodel: %d pages exceed the page-table width", numPages)
	}
	m := &Model{
		blocksPerPage: blocksPerPage,
		pageShift:     uint64(bits.TrailingZeros64(blocksPerPage)),
		pageMask:      blocksPerPage - 1,
		numPages:      numPages,
		virtToPhys:    make([]uint32, numPages),
		retired:       make([]bool, numPages),
	}
	for i := uint64(0); i < numPages; i++ {
		m.virtToPhys[i] = uint32(i)
	}
	return m, nil
}

// NumPages returns the total number of physical pages.
func (m *Model) NumPages() uint64 { return m.numPages }

// BlocksPerPage returns the page size in blocks.
func (m *Model) BlocksPerPage() uint64 { return m.blocksPerPage }

// Translate maps a virtual block address to the physical block address
// (PA) the software would issue. ok is false when the memory has no
// usable pages left.
func (m *Model) Translate(vblock uint64) (pa uint64, ok bool) {
	// The shift count is masked to 6 bits so the compiler emits a bare
	// shift; it is below 64 anyway. Comparing against the table's length
	// (== numPages) lets the compiler drop the index bounds check.
	vpage := vblock >> (m.pageShift & 63)
	if vpage >= uint64(len(m.virtToPhys)) {
		panic(fmt.Sprintf("osmodel: virtual block %d out of range", vblock))
	}
	if m.retiredCnt == m.numPages {
		return 0, false
	}
	ppage := uint64(m.virtToPhys[vpage])
	return ppage<<(m.pageShift&63) | vblock&m.pageMask, true
}

// PageOf returns the physical page containing block address pa.
func (m *Model) PageOf(pa uint64) uint64 { return pa >> (m.pageShift & 63) }

// Retired reports whether the page containing pa has been retired.
func (m *Model) Retired(pa uint64) bool { return m.retired[m.PageOf(pa)] }

// RetiredPages returns the number of retired pages.
func (m *Model) RetiredPages() uint64 { return m.retiredCnt }

// UsablePages returns the number of pages still available to software.
func (m *Model) UsablePages() uint64 { return m.numPages - m.retiredCnt }

// UsableFraction returns UsablePages/NumPages, the paper's
// "software-usable space" metric denominator.
func (m *Model) UsableFraction() float64 {
	return float64(m.UsablePages()) / float64(m.numPages)
}

// ReportFailure is the memory-exception path: the OS retires the page
// containing pa, relocates its live data to a donor page, and never
// accesses the page again. It returns the PAs of the retired page (which
// thereby become implicitly reserved for the reporting layer) and the
// recovery copies the OS performs. Reporting a failure on an
// already-retired page is a caller bug and panics.
func (m *Model) ReportFailure(pa uint64) (reservedPAs []uint64, copies []Relocation) {
	page := m.PageOf(pa)
	if page >= m.numPages {
		panic(fmt.Sprintf("osmodel: PA %d out of range", pa))
	}
	if m.retired[page] {
		panic(fmt.Sprintf("osmodel: page %d already retired; software should not have accessed it", page))
	}
	m.retired[page] = true
	m.retiredCnt++
	if m.observer != nil {
		m.observer.Event(obs.Event{Kind: obs.PageRetired, A: page})
	}

	reservedPAs = make([]uint64, m.blocksPerPage)
	for i := uint64(0); i < m.blocksPerPage; i++ {
		reservedPAs[i] = page*m.blocksPerPage + i
	}

	if m.retiredCnt == m.numPages {
		return reservedPAs, nil // nowhere to relocate; memory exhausted
	}
	// Remap every virtual page currently backed by the retired physical
	// page (the original owner plus any pages folded onto it by earlier
	// retirements) to a single donor, and copy the data once.
	hadData := false
	var donor uint64
	for v := uint64(0); v < m.numPages; v++ {
		if uint64(m.virtToPhys[v]) != page {
			continue
		}
		if !hadData {
			hadData = true
			donor = m.pickDonor()
		}
		m.virtToPhys[v] = uint32(donor)
	}
	if !hadData {
		return reservedPAs, nil // page held no live data
	}
	copies = make([]Relocation, m.blocksPerPage)
	for i := uint64(0); i < m.blocksPerPage; i++ {
		copies[i] = Relocation{
			OldPA: page*m.blocksPerPage + i,
			NewPA: donor*m.blocksPerPage + i,
		}
	}
	return reservedPAs, copies
}

// pickDonor returns the next non-retired physical page in round-robin
// order. Requires at least one live page.
func (m *Model) pickDonor() uint64 {
	for {
		m.donorCur++
		if m.donorCur >= m.numPages {
			m.donorCur = 0
		}
		if !m.retired[m.donorCur] {
			return m.donorCur
		}
	}
}

// SetObserver attaches an event observer (nil detaches). PageRetired
// fires once per retirement in ReportFailure; LoadBitmap restores state
// silently (a reboot replays no events).
func (m *Model) SetObserver(o obs.Observer) { m.observer = o }

// Bitmap returns a copy of the retirement bitmap, one bit per page,
// little-endian within bytes. This is the structure WL-Reviver persists
// in PCM so a rebooted OS knows which pages are out of use.
func (m *Model) Bitmap() []byte {
	out := make([]byte, (m.numPages+7)/8)
	for p := uint64(0); p < m.numPages; p++ {
		if m.retired[p] {
			out[p/8] |= 1 << (p % 8)
		}
	}
	return out
}

// LoadBitmap restores retirement state from a bitmap produced by Bitmap,
// as the memory-diagnostics step of a reboot would. Virtual pages that
// pointed at retired pages are remapped to donors. It returns an error if
// the bitmap length does not match.
func (m *Model) LoadBitmap(bm []byte) error {
	if len(bm) != int((m.numPages+7)/8) {
		return fmt.Errorf("osmodel: bitmap length %d does not match %d pages", len(bm), m.numPages)
	}
	// Reset to identity, then retire marked pages.
	m.retiredCnt = 0
	for p := uint64(0); p < m.numPages; p++ {
		m.retired[p] = false
		m.virtToPhys[p] = uint32(p)
	}
	for p := uint64(0); p < m.numPages; p++ {
		if bm[p/8]&(1<<(p%8)) != 0 {
			m.retired[p] = true
			m.retiredCnt++
		}
	}
	if m.retiredCnt == m.numPages {
		return nil
	}
	// Virtual page p was identity-mapped to physical p; remap the ones
	// whose physical page is retired.
	for p := uint64(0); p < m.numPages; p++ {
		if m.retired[p] {
			m.virtToPhys[p] = uint32(m.pickDonor())
		}
	}
	return nil
}
