package reviver

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/trace"
)

// Wear a system until failures are linked, snapshot, "reboot" (fresh OS
// model + fresh Reviver over the same non-volatile device and leveler),
// restore, and verify the system continues with data and invariants
// intact.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 300, seed: 21})
	g, _ := trace.NewUniform(256, 21)
	for i := 0; i < 600_000 && h.rv.LinkedFailures() < 5; i++ {
		if !h.write(g.Next()) {
			t.Fatal("memory died before enough failures accumulated")
		}
	}
	if h.rv.LinkedFailures() < 5 {
		t.Skip("not enough failures to make the test meaningful")
	}
	// Drain any suspension so the snapshot is clean.
	for h.rv.HasPending() {
		if !h.write(g.Next()) {
			t.Fatal("memory died while draining")
		}
	}
	snap, err := h.rv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantLinks := h.rv.LinkedFailures()
	wantSpares := h.rv.AvailableSpares()
	wantRetired := h.os.RetiredPages()

	// Reboot: the PCM (device) and the controller's wear-leveling
	// registers (leveler) are non-volatile; the OS and the framework's
	// tables are rebuilt.
	freshOS, err := osmodel.New(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{}, h.lv, h.be, freshOS)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.LinkedFailures() != wantLinks {
		t.Errorf("links after restore: %d, want %d", fresh.LinkedFailures(), wantLinks)
	}
	if fresh.AvailableSpares() != wantSpares {
		t.Errorf("spares after restore: %d, want %d", fresh.AvailableSpares(), wantSpares)
	}
	if freshOS.RetiredPages() != wantRetired {
		t.Errorf("retired pages after restore: %d, want %d", freshOS.RetiredPages(), wantRetired)
	}

	// The restored system must read back every surviving PA's data.
	h.os = freshOS
	h.rv = fresh
	h.verifyTheorems()
	h.verifyContent()

	// And keep running: another wear-out leg with invariants checked.
	h.run(g, 100_000, 5_000)
}

func TestSnapshotRejectsPending(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 16, endurance: 1e9, seed: 22})
	// Force a suspension artificially: kill the gap target with no spares.
	h.rv.suspend(1, 0, false, 0, false)
	if _, err := h.rv.Snapshot(); err == nil {
		t.Fatal("snapshot with pending deliveries must fail")
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 16, endurance: 1e9, seed: 23})
	good, err := h.rv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"truncated":   good[:len(good)-1],
		"bad version": func() []byte { b := append([]byte{}, good...); b[4] = 99; return b }(),
	}
	for name, data := range cases {
		freshOS, _ := osmodel.New(64, 16)
		fresh, _ := New(Config{}, h.lv, h.be, freshOS)
		if err := fresh.Restore(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestRestoreValidatesAgainstChip(t *testing.T) {
	// A snapshot taken against one chip must be rejected by a different
	// (healthy) chip: its links reference blocks the new chip says are
	// alive.
	h := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 250, seed: 24})
	g, _ := trace.NewUniform(256, 24)
	for i := 0; i < 800_000 && h.rv.LinkedFailures() == 0; i++ {
		if !h.write(g.Next()) {
			break
		}
	}
	if h.rv.LinkedFailures() == 0 {
		t.Skip("no failures")
	}
	for h.rv.HasPending() {
		h.write(g.Next())
	}
	snap, err := h.rv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := newHarness(t, harnessOpts{blocks: 256, blocksPerPage: 16, endurance: 1e9, seed: 25})
	if err := other.rv.Restore(snap); err == nil {
		t.Fatal("snapshot restored against a chip with no matching failures")
	}
}

// TestRestoreRejectsInconsistentImages edits single fields of a valid
// reboot image so that it names one DA or PA twice, or a pointer slot
// outside the retired pages, and expects Restore to refuse each.
func TestRestoreRejectsInconsistentImages(t *testing.T) {
	h := degradedHarness(t, 11)
	good, err := h.rv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if h.rv.LinkedFailures() < 2 {
		t.Fatalf("need two links to edit, have %d", h.rv.LinkedFailures())
	}
	u64 := binary.LittleEndian.Uint64
	bmLen := int(u64(good[8:]))
	links := 16 + bmLen + 8 // first link record: (DA, PA)
	nLinks := int(u64(good[links-8:]))
	spares := links + 16*nLinks + 8
	slots := spares + 8*int(u64(good[spares-8:])) + 8
	if int(u64(good[slots-8:])) == 0 {
		t.Fatal("image assigns no pointer slots to edit")
	}
	edit := func(off int, v uint64) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"DA linked twice":            edit(links+16, u64(good[links:])),
		"PA linked twice":            edit(links+24, u64(good[links+8:])),
		"slot outside retired pages": edit(slots+8, h.lv.NumPAs()),
	}
	for name, data := range cases {
		if err := h.reboot(t).Restore(data); err == nil {
			t.Errorf("%s: inconsistent image accepted", name)
		}
	}
}

// reboot returns a fresh framework over a fresh OS model, keeping h's
// non-volatile device and leveler: the state a rebooted controller
// starts Restore from.
func (h *harness) reboot(t testing.TB) *Reviver {
	t.Helper()
	osm, err := osmodel.New(h.lv.NumPAs(), h.os.BlocksPerPage())
	if err != nil {
		t.Fatal(err)
	}
	rv, err := New(Config{}, h.lv, h.be, osm)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// FuzzReviverRestore feeds arbitrary reboot images to Restore against a
// chip with linked failures. The image carries no checksum, so Restore
// must reject every malformed one with an error rather than panic or
// allocate without bound; an image it accepts must describe a
// consistent arena and re-serialise to a fixed point. The seed corpus in
// testdata/fuzz/FuzzReviverRestore holds an accepted image, a truncated
// one and three that once panicked: a spare PA outside the PA space, a
// bitmap length of 2^62 and a link count of 2^60.
func FuzzReviverRestore(f *testing.F) {
	h := degradedHarness(f, 11)
	good, err := h.rv.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		rv := h.reboot(t)
		if err := rv.Restore(data); err != nil {
			return
		}
		if got := rv.LinkedFailures() + rv.AvailableSpares(); got != len(rv.nodes) {
			t.Fatalf("accepted image: %d linked + %d spare != %d arena nodes",
				rv.LinkedFailures(), rv.AvailableSpares(), len(rv.nodes))
		}
		snap, err := rv.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		again := h.reboot(t)
		if err := again.Restore(snap); err != nil {
			t.Fatalf("re-serialised image rejected: %v", err)
		}
		snap2, err := again.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, snap2) {
			t.Fatal("restore/snapshot is not a fixed point")
		}
	})
}

// TestLoadStateRejectsOutOfRangeArena hands LoadState a well-framed
// checkpoint whose one arena node names a PA, DA or pointer slot outside
// the leveler's spaces. LoadState must refuse it before indexing the
// dense arrays with it.
func TestLoadStateRejectsOutOfRangeArena(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 16, endurance: 1e9, seed: 23})
	cases := map[string]shadowNode{
		"PA":   {pa: h.lv.NumPAs(), da: noDA, slot: noSlot, next: noNode},
		"DA":   {pa: 0, da: h.lv.NumDAs(), slot: noSlot, next: noNode},
		"slot": {pa: 0, da: noDA, slot: h.lv.NumPAs(), next: noNode},
	}
	for name, n := range cases {
		src, err := New(Config{}, h.lv, h.be, h.os)
		if err != nil {
			t.Fatal(err)
		}
		src.nodes = []shadowNode{n}
		if n.da == noDA {
			src.freeHead = 0
		}
		e := ckpt.NewEncoder()
		e.Begin("reviver")
		src.SaveState(e)
		e.End()
		d, err := ckpt.NewDecoder(e.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Section("reviver"); err != nil {
			t.Fatal(err)
		}
		dst, err := New(Config{}, h.lv, h.be, h.os)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadState(d); err == nil {
			t.Errorf("%s out of range: checkpoint accepted", name)
		}
	}
}
