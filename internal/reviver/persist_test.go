package reviver

import (
	"bytes"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/trace"
)

// rebootSeed selects a degradedHarness whose arena holds links, spares
// and pointer slots.
const rebootSeed = 2

// Wear a system until failures are linked, snapshot, "reboot" (fresh OS
// model + fresh Reviver over the same non-volatile device and leveler),
// restore, and verify the system continues with the arena, data and
// invariants intact.
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
	wantArena := arenaPrefix(h.rv)
	wantRetired := h.os.RetiredPages()

	// Reboot: the PCM (device) and the controller's wear-leveling
	// registers (leveler) are non-volatile; the OS and the framework's
	// tables are rebuilt.
	fresh := h.reboot(t)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The arena comes back verbatim, node order and free-list links
	// included, so link and spare counts match too.
	if !bytes.Equal(arenaPrefix(fresh), wantArena) {
		t.Error("the arena after the reboot differs from the arena before it")
	}
	if fresh.os.RetiredPages() != wantRetired {
		t.Errorf("retired pages after restore: %d, want %d", fresh.os.RetiredPages(), wantRetired)
	}

	// The restored system must read back every surviving PA's data.
	h.os, h.rv = fresh.os, fresh
	h.verifyTheorems()
	h.verifyContent()

	// And keep running: another wear-out leg with invariants checked.
	h.run(g, 100_000, 5_000)
}

// arenaPrefix returns the arena bytes at the head of rv's SaveState
// payload.
func arenaPrefix(rv *Reviver) []byte {
	e := ckpt.NewEncoder()
	e.Begin("reviver")
	rv.SaveState(e)
	e.End()
	return e.Finish()[18+len("reviver"):][:8+28*len(rv.nodes)]
}

func TestSnapshotRejectsPending(t *testing.T) {
	h := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 16, endurance: 1e9, seed: 22})
	// Force a suspension artificially: kill the gap target with no spares.
	h.rv.suspend(1, 0, false, 0, false)
	if _, err := h.rv.Snapshot(); err == nil {
		t.Fatal("snapshot with pending deliveries must fail")
	}
}

// TestRestoreRejectsCorruptSnapshots damages a valid reboot image by
// truncation, a bit flip in any byte, a wrong magic or version, or a
// missing section, and expects ckpt's framing to refuse each with
// ErrBadCheckpoint before any state is applied.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	h := degradedHarness(t, rebootSeed)
	good, err := h.rv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"bad magic":     append([]byte("NOPE"), good[4:]...),
		"bad version":   func() []byte { b := bytes.Clone(good); b[4] = 99; return b }(),
		"no section":    ckpt.NewEncoder().Finish(),
		"trailing byte": append(bytes.Clone(good), 0),
	}
	for i := range good {
		cases["truncated to "+strconv.Itoa(i)] = good[:i]
		flipped := bytes.Clone(good)
		flipped[i] ^= 1 << (i % 8)
		cases["bit flip at "+strconv.Itoa(i)] = flipped
	}
	for name, data := range cases {
		rv := h.reboot(t)
		if err := rv.Restore(data); !errors.Is(err, ckpt.ErrBadCheckpoint) {
			t.Errorf("%s: restore = %v, want ErrBadCheckpoint", name, err)
		}
		if len(rv.nodes) != 0 || rv.os.RetiredPages() != 0 {
			t.Errorf("%s: rejected image left state behind", name)
		}
	}
}

// editImage returns h's reboot image with its arena changed by edit,
// which is given the arena indexes of two linked nodes, so tests build
// inconsistent images through Snapshot's encoder.
func editImage(t *testing.T, h *harness, edit func(n []shadowNode, a, b int)) []byte {
	t.Helper()
	nodes := slices.Clone(h.rv.nodes)
	var links []int
	for i, n := range nodes {
		if n.da != noDA {
			links = append(links, i)
		}
	}
	if len(links) < 2 || h.rv.freeHead == noNode {
		t.Fatalf("need two links and a spare, have %d and %d", len(links), h.rv.AvailableSpares())
	}
	edit(nodes, links[0], links[1])
	return rebootImage(h.os.Bitmap(), nodes, h.rv.freeHead)
}

// wantRestoreError fails unless err names the expected rejection.
func wantRestoreError(t *testing.T, name string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: got error %v, want one containing %q", name, err, want)
	}
}

// TestRestoreRejectsInconsistentImages builds well-framed reboot images
// whose arena contradicts itself or the leveler's spaces, and expects
// decodeArena to refuse each through both of its callers, Restore and
// LoadState.
func TestRestoreRejectsInconsistentImages(t *testing.T) {
	h := degradedHarness(t, rebootSeed)
	head := h.rv.freeHead
	lastSpare := func(n []shadowNode) int {
		i := head
		for n[i].next != noNode {
			i = n[i].next
		}
		return int(i)
	}
	nPA, nDA := h.lv.NumPAs(), h.lv.NumDAs()
	truncated := ckpt.NewEncoder()
	truncated.Begin(rebootSection)
	truncated.String(string(h.os.Bitmap()))
	truncated.U32(uint32(len(h.rv.nodes)))
	truncated.End()
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"truncated arena", "overruns payload", truncated.Finish()},
		{"arena longer than the PA space", "nodes exceeds",
			rebootImage(h.os.Bitmap(), make([]shadowNode, nPA+1), noNode)},
		{"DA linked twice", "to shadow PAs", editImage(t, h, func(n []shadowNode, a, b int) { n[b].da = n[a].da })},
		{"PA twice", "repeats shadow PA", editImage(t, h, func(n []shadowNode, a, b int) { n[b].pa = n[a].pa })},
		{"PA outside the PA space", "shadow PA 64 outside", editImage(t, h, func(n []shadowNode, a, _ int) { n[a].pa = nPA })},
		{"DA outside the DA space", "outside the DA space", editImage(t, h, func(n []shadowNode, a, _ int) { n[a].da = nDA })},
		{"slot outside the PA space", "slot 64 outside", editImage(t, h, func(n []shadowNode, a, _ int) { n[a].slot = nPA })},
		{"free-list cycle", "free list cycles",
			editImage(t, h, func(n []shadowNode, _, _ int) { n[lastSpare(n)].next = head })},
		{"free list leaves the arena", "outside arena",
			editImage(t, h, func(n []shadowNode, _, _ int) { n[lastSpare(n)].next = uint32(len(n)) })},
		{"free list holds a link", "holds linked",
			editImage(t, h, func(n []shadowNode, a, _ int) { n[lastSpare(n)].next = uint32(a) })},
		{"node neither linked nor spare", "linked +", editImage(t, h, func(n []shadowNode, a, _ int) { n[a].da = noDA })},
	} {
		wantRestoreError(t, c.name, h.reboot(t).Restore(c.data), c.want)
		d, err := ckpt.NewDecoder(c.data)
		if err != nil || d.Section(rebootSection) != nil {
			t.Fatalf("%s: image is not well framed", c.name)
		}
		_ = d.String() // LoadState's section starts at the arena
		wantRestoreError(t, c.name+" (LoadState)", h.reboot(t).LoadState(d), c.want)
	}
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

// TestRestoreValidatesAgainstChip builds consistent arenas that
// contradict the chip or the bitmap they are restored against: a link
// from a healthy block, a shadow PA or pointer slot outside the retired
// pages, or a bitmap of the wrong length.
func TestRestoreValidatesAgainstChip(t *testing.T) {
	h := degradedHarness(t, rebootSeed)
	bitmap, nodes, head := h.os.Bitmap(), h.rv.nodes, h.rv.freeHead
	var healthyDA, livePA uint64
	for h.be.Dead(healthyDA) {
		healthyDA++
	}
	for h.os.Retired(livePA) {
		livePA++
	}
	snap, err := h.rv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A healthy chip of the same geometry: every link names a live block.
	other := newHarness(t, harnessOpts{blocks: 64, blocksPerPage: 8, endurance: 1e12, seed: 3, gapPeriod: 3})
	wantRestoreError(t, "healthy chip", other.rv.Restore(snap), "says it is healthy")
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"linked DA healthy on the chip", "says it is healthy",
			editImage(t, h, func(n []shadowNode, a, _ int) { n[a].da = healthyDA })},
		{"linked shadow PA not retired", "shadow PA", editImage(t, h, func(n []shadowNode, a, _ int) { n[a].pa = livePA })},
		{"spare shadow PA not retired", "shadow PA", editImage(t, h, func(n []shadowNode, _, _ int) { n[head].pa = livePA })},
		{"pointer slot not retired", "pointer slot", editImage(t, h, func(n []shadowNode, a, _ int) { n[a].slot = livePA })},
		{"bitmap one byte too long", "bitmap length", rebootImage(append(bytes.Clone(bitmap), 0), nodes, head)},
		{"bitmap one byte short", "bitmap length", rebootImage(bitmap[:len(bitmap)-1], nodes, head)},
		{"bitmap retires no pages", "not in a retired page", rebootImage(make([]byte, len(bitmap)), nodes, head)},
	} {
		wantRestoreError(t, c.name, h.reboot(t).Restore(c.data), c.want)
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

// FuzzReviverRestore feeds arbitrary section payloads to Restore against
// a chip with linked failures. Each payload is framed as the reboot
// section, so inputs get past ckpt's CRC to decodeArena (LoadState's
// validator too) and Restore's chip checks. Restore must reject every
// malformed payload with an error rather than panic or allocate without
// bound; a payload it accepts must describe a consistent arena and
// re-snapshot to the same bytes. The seed corpus in
// testdata/fuzz/FuzzReviverRestore holds an accepted payload (seed-00),
// a truncated arena (01), a DA linked twice (02), a free-list cycle (03)
// and a pointer slot outside the retired pages (04).
func FuzzReviverRestore(f *testing.F) {
	h := degradedHarness(f, rebootSeed)
	good, err := h.rv.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[18+len(rebootSection) : len(good)-4]) // the section payload
	f.Fuzz(func(t *testing.T, payload []byte) {
		e := ckpt.NewEncoder()
		e.Begin(rebootSection)
		for _, b := range payload {
			e.U8(b)
		}
		e.End()
		img := e.Finish()
		rv := h.reboot(t)
		if err := rv.Restore(img); err != nil {
			return
		}
		if got := rv.LinkedFailures() + rv.AvailableSpares(); got != len(rv.nodes) {
			t.Fatalf("accepted image: %d linked + %d spare != %d arena nodes",
				rv.LinkedFailures(), rv.AvailableSpares(), len(rv.nodes))
		}
		if snap, err := rv.Snapshot(); err != nil || !bytes.Equal(snap, img) {
			t.Fatalf("accepted image re-snapshots to different bytes (err %v)", err)
		}
	})
}
