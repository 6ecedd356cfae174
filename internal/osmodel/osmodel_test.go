package osmodel

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct{ blocks, bpp uint64 }{
		{0, 64}, {100, 0}, {100, 64}, // 100 not multiple of 64
		{96, 24}, // a whole number of pages, but not a power-of-two page
	}
	for i, c := range cases {
		if _, err := New(c.blocks, c.bpp); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
	m, err := New(64*16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPages() != 16 || m.BlocksPerPage() != 64 {
		t.Errorf("geometry wrong: %d pages, %d bpp", m.NumPages(), m.BlocksPerPage())
	}
}

func TestTranslateIdentityInitially(t *testing.T) {
	m, _ := New(64*4, 64)
	for v := uint64(0); v < 256; v += 17 {
		pa, ok := m.Translate(v)
		if !ok || pa != v {
			t.Errorf("Translate(%d) = (%d,%v), want identity", v, pa, ok)
		}
	}
}

func TestReportFailureRetiresPage(t *testing.T) {
	m, _ := New(64*4, 64)
	pas, copies := m.ReportFailure(70) // block 70 is in page 1
	if len(pas) != 64 {
		t.Fatalf("reserved %d PAs, want 64", len(pas))
	}
	if pas[0] != 64 || pas[63] != 127 {
		t.Errorf("reserved range [%d,%d], want [64,127]", pas[0], pas[63])
	}
	if !m.Retired(70) || m.Retired(0) {
		t.Error("retirement flags wrong")
	}
	if m.RetiredPages() != 1 || m.UsablePages() != 3 {
		t.Errorf("retired=%d usable=%d", m.RetiredPages(), m.UsablePages())
	}
	if got := m.UsableFraction(); got != 0.75 {
		t.Errorf("usable fraction = %v, want 0.75", got)
	}
	if len(copies) != 64 {
		t.Fatalf("expected 64 recovery copies, got %d", len(copies))
	}
	// Virtual page 1 must now translate to the donor page.
	pa, ok := m.Translate(64)
	if !ok {
		t.Fatal("translate failed")
	}
	if m.PageOf(pa) == 1 {
		t.Error("virtual page 1 still maps to retired physical page 1")
	}
	if copies[0].NewPA != pa {
		t.Errorf("relocation target %d disagrees with translation %d", copies[0].NewPA, pa)
	}
}

func TestReportFailureOnRetiredPagePanics(t *testing.T) {
	m, _ := New(64*2, 64)
	m.ReportFailure(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double retirement")
		}
	}()
	m.ReportFailure(5)
}

func TestTranslateNeverReturnsRetiredPage(t *testing.T) {
	m, _ := New(64*8, 64)
	for i := 0; i < 7; i++ {
		// Retire whichever physical page virtual block 0 lives on, plus others.
		pa, ok := m.Translate(uint64(i) * 64)
		if !ok {
			t.Fatalf("translate failed at step %d", i)
		}
		m.ReportFailure(pa)
		for v := uint64(0); v < 8*64; v += 64 {
			pa, ok := m.Translate(v)
			if !ok {
				t.Fatalf("no usable pages after %d retirements", i+1)
			}
			if m.Retired(pa) {
				t.Fatalf("virtual %d translated to retired PA %d", v, pa)
			}
		}
	}
}

func TestAllPagesRetired(t *testing.T) {
	m, _ := New(64*2, 64)
	m.ReportFailure(0)
	pas, copies := m.ReportFailure(64)
	if len(pas) != 64 {
		t.Error("last page should still yield reserved PAs")
	}
	if copies != nil {
		t.Error("no donor exists; copies should be nil")
	}
	if _, ok := m.Translate(0); ok {
		t.Error("translation should fail with zero usable pages")
	}
	if m.UsableFraction() != 0 {
		t.Error("usable fraction should be 0")
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	m, _ := New(64*10, 64)
	m.ReportFailure(3 * 64)
	m.ReportFailure(7 * 64)
	bm := m.Bitmap()

	fresh, _ := New(64*10, 64)
	if err := fresh.LoadBitmap(bm); err != nil {
		t.Fatal(err)
	}
	if fresh.RetiredPages() != 2 {
		t.Fatalf("restored %d retired pages, want 2", fresh.RetiredPages())
	}
	for _, page := range []uint64{3, 7} {
		if !fresh.Retired(page * 64) {
			t.Errorf("page %d not retired after reload", page)
		}
		pa, ok := fresh.Translate(page * 64)
		if !ok || fresh.Retired(pa) {
			t.Errorf("virtual page %d not remapped after reload", page)
		}
	}
	if err := fresh.LoadBitmap([]byte{1}); err == nil {
		t.Error("short bitmap accepted")
	}
}

func TestBitmapAllRetired(t *testing.T) {
	m, _ := New(64*2, 64)
	m.ReportFailure(0)
	m.ReportFailure(64)
	fresh, _ := New(64*2, 64)
	if err := fresh.LoadBitmap(m.Bitmap()); err != nil {
		t.Fatal(err)
	}
	if fresh.UsablePages() != 0 {
		t.Error("all pages should be retired after reload")
	}
}

// Property: after arbitrary retirement sequences, translation targets are
// always live pages and the usable count is consistent.
func TestQuickRetirementConsistency(t *testing.T) {
	prop := func(seq []uint8) bool {
		const pages = 16
		m, err := New(64*pages, 64)
		if err != nil {
			return false
		}
		for _, s := range seq {
			if m.UsablePages() == 0 {
				break
			}
			// Report through translation so we never hit a retired page.
			pa, ok := m.Translate(uint64(s%pages) * 64)
			if !ok {
				return false
			}
			m.ReportFailure(pa)
		}
		if m.RetiredPages()+m.UsablePages() != pages {
			return false
		}
		if m.UsablePages() == 0 {
			return true
		}
		for v := uint64(0); v < pages; v++ {
			pa, ok := m.Translate(v * 64)
			if !ok || m.Retired(pa) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sink keeps BenchmarkTranslate's dependency chain live.
var sink uint64

// BenchmarkTranslate measures Translate's latency, not its throughput:
// each result feeds the next address, so the loop runs only as fast as
// one translation completes (a divide here would show in full).
func BenchmarkTranslate(b *testing.B) {
	const blocks = 1 << 16
	m, err := New(blocks, 64)
	if err != nil {
		b.Fatal(err)
	}
	var v uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, _ := m.Translate(v)
		v = (pa + 0x9e3) & (blocks - 1)
	}
	sink = v
}
