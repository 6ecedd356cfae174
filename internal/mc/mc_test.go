package mc

import (
	"testing"
	"unsafe"

	"wlreviver/internal/ecc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/wear"
)

func newBackend(t *testing.T, blocks uint64, endurance float64) *Backend {
	t.Helper()
	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks: blocks, BlockBytes: 64, CellsPerBlock: 512,
		MeanEndurance: endurance, LifetimeCoV: 0.2, Seed: 3, TrackContent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ecc.NewECP(6, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return &Backend{Dev: dev, ECC: e}
}

func TestBackendWriteRawHealthy(t *testing.T) {
	be := newBackend(t, 8, 1e9)
	for i := 0; i < 100; i++ {
		if !be.WriteRaw(3) {
			t.Fatal("healthy write failed")
		}
	}
	if be.Dead(3) {
		t.Fatal("block should be alive")
	}
	be.ReadRaw(3)
	if be.Dev.Stats().Reads != 1 {
		t.Error("read not counted")
	}
}

func TestBackendDeclaresDeath(t *testing.T) {
	be := newBackend(t, 4, 100)
	died := false
	for i := 0; i < 5000; i++ {
		if !be.WriteRaw(0) {
			died = true
			break
		}
	}
	if !died {
		t.Fatal("block never died at 50x endurance")
	}
	if !be.Dead(0) {
		t.Fatal("device not marked dead")
	}
	// Writes to a dead block keep failing but still wear.
	w := be.Dev.Wear(0)
	if be.WriteRaw(0) {
		t.Error("write to dead block should fail")
	}
	if be.Dev.Wear(0) != w+1 {
		t.Error("failed write should still wear")
	}
}

func TestPassthroughHealthyPath(t *testing.T) {
	be := newBackend(t, 64, 1e9)
	osm, _ := osmodel.New(64, 16)
	lv := wear.Static{Size: 64}
	p := NewPassthrough(lv, be, osm)
	if p.Name() != "none" {
		t.Errorf("name = %q", p.Name())
	}
	res := p.Write(5, 42)
	if res.Retry || res.Accesses != 1 {
		t.Errorf("healthy write: %+v", res)
	}
	tag, acc := p.Read(5)
	if tag != 42 || acc != 1 {
		t.Errorf("read = (%d,%d), want (42,1)", tag, acc)
	}
	if p.Crippled() {
		t.Error("no failure yet")
	}
	if p.ResumePending() != 0 {
		t.Error("nothing pends")
	}
	if req, acc := p.RequestCounts(); req != 2 || acc != 2 {
		t.Errorf("request counts = (%d,%d), want (2,2)", req, acc)
	}
	if got := p.SoftwareUsableFraction(); got != 1 {
		t.Errorf("usable = %v, want 1", got)
	}
}

func TestPassthroughCripplesOnFailure(t *testing.T) {
	be := newBackend(t, 65, 200)
	osm, _ := osmodel.New(64, 16)
	lv, err := wear.NewStartGap(wear.StartGapConfig{NumPAs: 64, GapWritePeriod: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPassthrough(lv, be, osm)
	crippledAt := uint64(0)
	for i := 0; i < 200000; i++ {
		pa, ok := osm.Translate(uint64(i) % 64)
		if !ok {
			break
		}
		res := p.Write(pa, uint64(i))
		if res.Retry && crippledAt == 0 {
			crippledAt = uint64(i)
		}
		if !p.Crippled() {
			lv.NoteWrite(pa, p)
		}
	}
	if !p.Crippled() {
		t.Fatal("passthrough never crippled at 200 endurance")
	}
	if p.FirstFailureAt() == 0 {
		t.Error("first failure index not recorded")
	}
	if p.LostWrites() == 0 {
		t.Error("lost writes not counted")
	}
	if osm.RetiredPages() == 0 {
		t.Error("failures should retire pages")
	}
}

func TestPassthroughMoverOps(t *testing.T) {
	be := newBackend(t, 16, 1e9)
	osm, _ := osmodel.New(16, 16)
	lv := wear.Static{Size: 16}
	p := NewPassthrough(lv, be, osm)
	p.Write(1, 11)
	p.Write(2, 22)
	p.Migrate(1, 3)
	if be.Dev.Content(3) != 11 {
		t.Error("migrate did not move content")
	}
	p.Swap(1, 2)
	if be.Dev.Content(1) != 22 || be.Dev.Content(2) != 11 {
		t.Error("swap did not exchange content")
	}
	if p.Crippled() {
		t.Error("healthy mover ops should not cripple")
	}
}

// TestWriteResultFitsInRegisters pins WriteResult at two words. Go keeps
// values of at most 32 bytes in registers; a larger result is spilled to
// the stack and reloaded after every protector write, on the engine's
// per-write path.
func TestWriteResultFitsInRegisters(t *testing.T) {
	if size := unsafe.Sizeof(WriteResult{}); size > 16 {
		t.Fatalf("WriteResult is %d bytes, want at most 16: past Go's 32-byte register limit every protector write returns it through memory", size)
	}
}
