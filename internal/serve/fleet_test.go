package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// testSpec is the shared small-device spec: large enough to exercise
// failures and revival, small enough that a test hosts hundreds.
func testSpec(seed uint64) DeviceSpec {
	return DeviceSpec{
		Blocks:         1 << 9,
		BlocksPerPage:  8,
		MeanEndurance:  500,
		Seed:           seed,
		GapWritePeriod: 10,
		Workload:       trace.Spec{Kind: "mg"},
	}
}

// testConfig is a fleet config over a fresh temp dir, with fsync off
// (the process outlives every simulated crash here; the smoke script
// covers real kill -9 durability).
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{Dir: t.TempDir(), DisableSync: true}
}

// referenceRun plays n workload writes on a standalone engine built
// from the same spec and returns its metrics JSON and checkpoint image
// — the byte-exact target every fleet path must hit.
func referenceRun(t *testing.T, spec DeviceSpec, n uint64) (metrics, img []byte) {
	t.Helper()
	eng, _, err := buildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.RunN(n); got != n {
		t.Fatalf("reference run serviced %d of %d writes", got, n)
	}
	raw, err := metricsOf(eng)
	if err != nil {
		t.Fatal(err)
	}
	img, err = eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return raw, img
}

// fleetState fetches a device's metrics JSON and checkpoint image.
func fleetState(t *testing.T, f *Fleet, id string) (metrics, img []byte) {
	t.Helper()
	ctx := context.Background()
	raw, err := f.Metrics(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	img, err = f.Checkpoint(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return raw, img
}

// TestFleetMatchesStandaloneBatched pins the core server-side
// scheduling contract: a device driven through the fleet in ragged
// request batches ends byte-identical — metrics JSON and checkpoint image — to a standalone
// engine run of the same spec and total.
func TestFleetMatchesStandaloneBatched(t *testing.T) {
	spec := testSpec(7)
	const total = 60_000
	wantMetrics, wantImg := referenceRun(t, spec, total)

	cfg := testConfig(t)
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Create("dev", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sent uint64
	for _, chunk := range []uint64{1, 999, 12_345, 7, 30_000, 16_648} {
		wr, err := f.Write(ctx, "dev", chunk)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Done != chunk {
			t.Fatalf("chunk %d: serviced %d", chunk, wr.Done)
		}
		sent += chunk
	}
	if sent != total {
		t.Fatalf("test bug: chunks sum to %d, want %d", sent, total)
	}
	gotMetrics, gotImg := fleetState(t, f, "dev")
	if !bytes.Equal(gotMetrics, wantMetrics) {
		t.Errorf("metrics diverge from standalone run:\nfleet: %s\nsolo:  %s", gotMetrics, wantMetrics)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Errorf("checkpoint image diverges from standalone run (%d vs %d bytes)", len(gotImg), len(wantImg))
	}
}

// TestFleetMatchesStandaloneEvicted drives two devices through a
// one-slot residency budget so every request evicts the other device
// (checkpoint to spill, rebuild on next touch) — and both must still
// match their standalone runs exactly.
func TestFleetMatchesStandaloneEvicted(t *testing.T) {
	specA, specB := testSpec(7), testSpec(11)
	const total = 24_000
	wantMetricsA, wantImgA := referenceRun(t, specA, total)
	wantMetricsB, wantImgB := referenceRun(t, specB, total)

	cfg := testConfig(t)
	cfg.MaxResident = 1
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Create("a", specA); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("b", specB); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ { // alternate: every touch reloads from spill
		for _, id := range []string{"a", "b"} {
			if _, err := f.Write(ctx, id, total/8); err != nil {
				t.Fatalf("%s round %d: %v", id, i, err)
			}
		}
	}
	if h := f.Health(); h.Resident > 1 {
		t.Errorf("resident count %d exceeds budget 1", h.Resident)
	}
	gotMetricsA, gotImgA := fleetState(t, f, "a")
	gotMetricsB, gotImgB := fleetState(t, f, "b")
	if !bytes.Equal(gotMetricsA, wantMetricsA) || !bytes.Equal(gotImgA, wantImgA) {
		t.Errorf("device a diverges from standalone run after evictions")
	}
	if !bytes.Equal(gotMetricsB, wantMetricsB) || !bytes.Equal(gotImgB, wantImgB) {
		t.Errorf("device b diverges from standalone run after evictions")
	}
}

// TestFleetMatchesStandaloneAfterKill abandons a fleet without any
// shutdown (the in-process analogue of kill -9: no Close, no final
// checkpoint) and reopens the spill directory. The journal must replay
// every acknowledged write, converging to the uninterrupted run byte
// for byte.
func TestFleetMatchesStandaloneAfterKill(t *testing.T) {
	spec := testSpec(7)
	const total = 40_000
	wantMetrics, wantImg := referenceRun(t, spec, total)

	cfg := testConfig(t)
	cfg.CheckpointEvery = 9_000 // several durability checkpoints, then a journal tail
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Create("dev", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f1.Write(ctx, "dev", 25_000); err != nil {
		t.Fatal(err)
	}
	// Abandon f1: no Close, so nothing beyond the journal survives on
	// purpose. Its actors idle until the process exits.

	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st, err := f2.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 25_000 {
		t.Fatalf("recovered %d writes, want 25000", st.Writes)
	}
	if _, err := f2.Write(ctx, "dev", total-25_000); err != nil {
		t.Fatal(err)
	}
	gotMetrics, gotImg := fleetState(t, f2, "dev")
	if !bytes.Equal(gotMetrics, wantMetrics) {
		t.Errorf("metrics diverge after kill+restart:\nfleet: %s\nsolo:  %s", gotMetrics, wantMetrics)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Errorf("checkpoint image diverges after kill+restart")
	}
}

// TestFleetNewLevelerStacks hosts devices on the WoLFRaM and SoftWear
// registry stacks and drives them through the fleet's full durability
// gauntlet — a one-slot residency budget (every touch spills and
// reloads the other device) and then an abandoned fleet reopened from
// its spill directory — requiring byte-identity with standalone engine
// runs of the same specs throughout.
func TestFleetNewLevelerStacks(t *testing.T) {
	specFor := func(stack string, seed uint64) DeviceSpec {
		s := testSpec(seed)
		s.Stack = stack
		return s
	}
	specA := specFor("wolfram/WFR-WLR", 7)
	specB := specFor("softwear/SW-WLR", 11)
	const total = 24_000
	wantMetricsA, wantImgA := referenceRun(t, specA, total)
	wantMetricsB, wantImgB := referenceRun(t, specB, total)

	cfg := testConfig(t)
	cfg.MaxResident = 1 // every alternation evicts the other device
	cfg.CheckpointEvery = 9_000
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Create("wfr", specA); err != nil {
		t.Fatal(err)
	}
	if err := f1.Create("sw", specB); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		for _, id := range []string{"wfr", "sw"} {
			if _, err := f1.Write(ctx, id, total/8); err != nil {
				t.Fatalf("%s round %d: %v", id, i, err)
			}
		}
	}
	// Abandon f1 mid-run (in-process kill -9) and recover from spill +
	// journal replay.
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for i := 4; i < 8; i++ {
		for _, id := range []string{"wfr", "sw"} {
			if _, err := f2.Write(ctx, id, total/8); err != nil {
				t.Fatalf("%s round %d after reopen: %v", id, i, err)
			}
		}
	}
	if h := f2.Health(); h.Resident > 1 {
		t.Errorf("resident count %d exceeds budget 1", h.Resident)
	}
	gotMetricsA, gotImgA := fleetState(t, f2, "wfr")
	gotMetricsB, gotImgB := fleetState(t, f2, "sw")
	if !bytes.Equal(gotMetricsA, wantMetricsA) || !bytes.Equal(gotImgA, wantImgA) {
		t.Errorf("WoLFRaM device diverges from standalone run across spill/evict/reload")
	}
	if !bytes.Equal(gotMetricsB, wantMetricsB) || !bytes.Equal(gotImgB, wantImgB) {
		t.Errorf("SoftWear device diverges from standalone run across spill/evict/reload")
	}
}

// TestFleetAddressWrites pins the explicit-address path: the fleet
// device matches a standalone engine fed the same WriteTagged sequence,
// including across a kill+restart that replays the address journal.
func TestFleetAddressWrites(t *testing.T) {
	spec := testSpec(7)
	addrs := make([]uint64, 3_000)
	for i := range addrs {
		addrs[i] = uint64(i*37) % (1 << 9)
	}

	eng, _, err := buildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !eng.WriteTagged(a, eng.Writes()) {
			t.Fatal("reference engine stopped unexpectedly")
		}
	}
	wantImg, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Create("dev", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f1.WriteAddrs(ctx, "dev", addrs[:1_000]); err != nil {
		t.Fatal(err)
	}
	// kill: abandon without Close, forcing journal replay of the
	// address batch on reopen.
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if _, err := f2.WriteAddrs(ctx, "dev", addrs[1_000:]); err != nil {
		t.Fatal(err)
	}
	_, gotImg := fleetState(t, f2, "dev")
	if !bytes.Equal(gotImg, wantImg) {
		t.Errorf("address-write checkpoint diverges from standalone run")
	}

	// Out-of-range addresses are rejected all-or-nothing.
	if _, err := f2.WriteAddrs(ctx, "dev", []uint64{1 << 9}); !errors.Is(err, sim.ErrBadConfig) {
		t.Errorf("out-of-range address: got %v, want ErrBadConfig", err)
	}
}

// TestStaleSpillDoesNotClobberReload pins the eviction/reload race: a
// victim is removed from the residency table before its spill runs, so
// the device's own actor can reload it (rebuilding from checkpoint +
// journal and acknowledging new writes) first. The late spill must
// then back off — writing its eviction-time image and truncating the
// shared journal would destroy records of the writes the new engine
// has since acknowledged.
func TestStaleSpillDoesNotClobberReload(t *testing.T) {
	spec := testSpec(7)
	cfg := testConfig(t)
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Create("dev", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Write(ctx, "dev", 5_000); err != nil {
		t.Fatal(err)
	}
	// Evict by hand exactly as victimsLocked would — remove from the
	// residency table — but hold the spill back, simulating the
	// evicting actor losing the scheduling race.
	f.mu.Lock()
	stale := f.resident["dev"]
	delete(f.resident, "dev")
	f.mu.Unlock()
	// The device's next request reloads it and acknowledges more
	// writes into the journal the stale resident still has open.
	if _, err := f.Write(ctx, "dev", 5_000); err != nil {
		t.Fatal(err)
	}
	// Now the delayed spill runs. It must detect the ownership
	// handover and leave the new owner's on-disk state alone.
	if err := f.spill(stale); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(cfg.Dir, "dev", journalFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("stale spill truncated the live journal: %v, %d bytes", err, fi.Size())
	}
	// Kill + reopen: all 10k acknowledged writes must replay.
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st, err := f2.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 10_000 {
		t.Errorf("recovered %d writes, want 10000 (stale spill rolled back acked state)", st.Writes)
	}
}

// TestJournalAddrBatchChunking pins the bounded-record invariant: an
// address batch larger than addrsPerRecord spans several records with
// correct intermediate absolute totals, every line stays under 1 MiB,
// and reading back reproduces the batch exactly.
func TestJournalAddrBatchChunking(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 3*addrsPerRecord + 17
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i * 31)
	}
	const before = 100
	if err := jl.appendAddrs(before+uint64(n), addrs); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) > 1<<20 {
			t.Fatalf("journal line of %d bytes is not bounded by addrsPerRecord", len(line))
		}
	}
	recs, err := readJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("batch of %d addrs produced %d records, want 4", n, len(recs))
	}
	total := uint64(before)
	var got []uint64
	for i, rec := range recs {
		if !rec.isAddrs {
			t.Fatalf("record %d is not an address record", i)
		}
		total += uint64(len(rec.addrs))
		if rec.after != total {
			t.Errorf("record %d: after=%d, want running total %d", i, rec.after, total)
		}
		got = append(got, rec.addrs...)
	}
	if len(got) != n {
		t.Fatalf("read back %d addrs, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d: read %d, want %d", i, got[i], addrs[i])
		}
	}
}

// TestFleetLargeAddressBatchRecovers drives an address batch spanning
// several journal records through the fleet, kills it, and reopens:
// chunked replay must land byte-identical to a standalone engine fed
// the same sequence.
func TestFleetLargeAddressBatchRecovers(t *testing.T) {
	spec := testSpec(7)
	n := 2*addrsPerRecord + 123
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i*37) % (1 << 9)
	}
	eng, _, err := buildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !eng.WriteTagged(a, eng.Writes()) {
			t.Fatal("reference engine stopped unexpectedly")
		}
	}
	wantImg, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Create("dev", spec); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f1.WriteAddrs(ctx, "dev", addrs); err != nil {
		t.Fatal(err)
	}
	// kill: abandon without Close, forcing replay of the chunked
	// address records on reopen.
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st, err := f2.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != uint64(n) {
		t.Fatalf("recovered %d writes, want %d", st.Writes, n)
	}
	_, gotImg := fleetState(t, f2, "dev")
	if !bytes.Equal(gotImg, wantImg) {
		t.Errorf("chunked address replay diverges from standalone run")
	}
}

// TestJournalAppendFailurePoisonsResident pins the divergence guard:
// when a journal append fails after writes were applied, the resident
// is discarded without a checkpoint and the device transparently
// reloads the exact acknowledged state on its next touch.
func TestJournalAppendFailurePoisonsResident(t *testing.T) {
	cfg := testConfig(t)
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Create("dev", testSpec(7)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Write(ctx, "dev", 5_000); err != nil {
		t.Fatal(err)
	}
	// Force the next append to fail by closing the journal's file
	// handle underneath the resident.
	f.mu.Lock()
	res := f.resident["dev"]
	f.mu.Unlock()
	if err := res.jl.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ctx, "dev", 1_000); err == nil {
		t.Fatal("write with a dead journal handle should fail")
	}
	// The diverged engine (5k acked + 1k unjournaled) must be gone.
	f.mu.Lock()
	_, stillResident := f.resident["dev"]
	f.mu.Unlock()
	if stillResident {
		t.Fatal("poisoned resident survived checkin")
	}
	// The device reloads from durable state and keeps serving.
	st, err := f.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 5_000 {
		t.Errorf("reloaded with %d writes, want the 5000 acknowledged", st.Writes)
	}
	if _, err := f.Write(ctx, "dev", 1_000); err != nil {
		t.Fatal(err)
	}
	if st, err = f.Status(ctx, "dev"); err != nil || st.Writes != 6_000 {
		t.Errorf("after recovery: %d writes, %v; want 6000", st.Writes, err)
	}
}

// TestDeleteDurable exercises the delete path with syncing enabled: the
// fleet directory is fsynced after removal so the acknowledged deletion
// survives a crash, and a reopen must not resurrect the device.
func TestDeleteDurable(t *testing.T) {
	cfg := Config{Dir: t.TempDir()} // sync on
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Create("dev", testSpec(7)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f1.Write(ctx, "dev", 1_000); err != nil {
		t.Fatal(err)
	}
	if err := f1.Delete(ctx, "dev"); err != nil {
		t.Fatal(err)
	}
	// kill: abandon without Close.
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if ids := f2.List(); len(ids) != 0 {
		t.Errorf("deleted device resurrected after reopen: %v", ids)
	}
}

// TestEvictionBudgetAndSpillHygiene pins the LRU mechanics: the
// resident count respects the budget, spilled devices leave exactly
// the three expected files (no temp litter), journals are truncated by
// the spill checkpoint, and deletion removes the directory.
func TestEvictionBudgetAndSpillHygiene(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxResident = 2
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	ids := []string{"d0", "d1", "d2", "d3", "d4"}
	for i, id := range ids {
		if err := f.Create(id, testSpec(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
		if h := f.Health(); h.Resident > 2 {
			t.Fatalf("after creating %s: %d resident, budget 2", id, h.Resident)
		}
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			if _, err := f.Write(ctx, id, 500); err != nil {
				t.Fatal(err)
			}
			if h := f.Health(); h.Resident > 2 {
				t.Fatalf("after writing %s: %d resident, budget 2", id, h.Resident)
			}
		}
	}
	// d0 was evicted (budget 2, five devices touched round-robin):
	// its directory must hold exactly the spec, checkpoint and a
	// truncated journal.
	dir := filepath.Join(cfg.Dir, "d0")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("spill left temp file %s", e.Name())
		}
	}
	if len(names) != 3 {
		t.Errorf("spill dir holds %v, want spec.json, state.ckpt, journal.wal", names)
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Errorf("spilled journal not truncated: %v, %d bytes", err, fi.Size())
	}
	// A spilled device resumes transparently.
	st, err := f.Status(ctx, "d0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 1_500 {
		t.Errorf("d0 resumed with %d writes, want 1500", st.Writes)
	}
	// Deletion removes the device and its directory.
	if err := f.Delete(ctx, "d0"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("device dir survives deletion: %v", err)
	}
	if _, err := f.Status(ctx, "d0"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("deleted device status: got %v, want ErrUnknownDevice", err)
	}
}

// TestCleanSpillKeepsCheckpoint: a device reloaded from its spill and
// then only read (status and metrics) is evicted again without a new
// checkpoint. The checkpoint file keeps its bytes and its inode, and
// the next reload restores the identical engine.
func TestCleanSpillKeepsCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxResident = 1
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	for i, id := range []string{"a", "b"} {
		if err := f.Create(id, testSpec(uint64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Write(ctx, "a", 2_000); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Status(ctx, "b"); err != nil { // evicts a, dirty
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Dir, "a", ckptFile)
	spilled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Status(ctx, "a"); err != nil { // reloads a, evicts b
		t.Fatal(err)
	}
	if _, err := f.Metrics(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Status(ctx, "b"); err != nil { // evicts a, clean
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("evicting a clean device replaced its checkpoint file")
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, spilled) {
		t.Errorf("evicting a clean device changed its checkpoint bytes (read error %v)", err)
	}
	img, err := f.Checkpoint(ctx, "a") // reloads a once more
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, spilled) {
		t.Error("the reload after a clean spill restored a different engine")
	}
}

// TestFleetErrors pins the taxonomy on the registry paths.
func TestFleetErrors(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxDevices = 1
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Create("bad id!", testSpec(1)); !errors.Is(err, sim.ErrBadConfig) {
		t.Errorf("invalid id: got %v, want ErrBadConfig", err)
	}
	spec := testSpec(1)
	spec.Workload.Kind = "nosuch"
	if err := f.Create("dev", spec); !errors.Is(err, trace.ErrUnknownWorkload) {
		t.Errorf("unknown workload: got %v, want ErrUnknownWorkload", err)
	}
	spec = testSpec(1)
	spec.Stack = "fig9/nope"
	if err := f.Create("dev", spec); !errors.Is(err, sim.ErrUnknownExperiment) {
		t.Errorf("unknown stack: got %v, want ErrUnknownExperiment", err)
	}
	if err := f.Create("dev", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Create("dev", testSpec(1)); !errors.Is(err, ErrDeviceExists) {
		t.Errorf("duplicate create: got %v, want ErrDeviceExists", err)
	}
	if err := f.Create("dev2", testSpec(2)); !errors.Is(err, ErrFleetFull) {
		t.Errorf("over capacity: got %v, want ErrFleetFull", err)
	}
	if _, err := f.Write(ctx, "ghost", 1); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown device: got %v, want ErrUnknownDevice", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ctx, "dev", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("closed fleet: got %v, want ErrClosed", err)
	}
}

// TestFleetWriteCancelled pins a cancelled write: a request whose
// context is already cancelled returns context.Canceled, services no
// write and appends no journal record.
func TestFleetWriteCancelled(t *testing.T) {
	cfg := testConfig(t)
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Create("dev", testSpec(7)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Write(ctx, "dev", 1_000); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(cfg.Dir, "dev", journalFile)
	journalSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before, err := f.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	size := journalSize()

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := f.Write(dead, "dev", 50_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write: got %v, want context.Canceled", err)
	}
	// The mailbox is FIFO, so this status request is served after the
	// cancelled write whichever way post returned.
	after, err := f.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if after.Writes != before.Writes {
		t.Errorf("cancelled write serviced writes: %d -> %d", before.Writes, after.Writes)
	}
	if got := journalSize(); got != size {
		t.Errorf("cancelled write grew the journal: %d -> %d bytes", size, got)
	}
}

// TestDeviceStackCreation creates one device per registered stack name
// — the "create from a registry experiment name" path.
func TestDeviceStackCreation(t *testing.T) {
	f, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	for i, name := range sim.DeviceStackNames() {
		id := deviceIDForStack(i)
		spec := testSpec(uint64(i + 1))
		spec.Stack = name
		if err := f.Create(id, spec); err != nil {
			t.Fatalf("stack %q: %v", name, err)
		}
		if _, err := f.Write(ctx, id, 2_000); err != nil {
			t.Fatalf("stack %q write: %v", name, err)
		}
	}
}

func deviceIDForStack(i int) string { return "stack-" + string(rune('a'+i)) }

// TestGracefulCloseParksEverything verifies Close checkpoints every
// resident device so a reopen needs no journal replay, and that the
// devices resume exactly.
func TestGracefulCloseParksEverything(t *testing.T) {
	cfg := testConfig(t)
	f1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f1.Create("dev", testSpec(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Write(ctx, "dev", 10_000); err != nil {
		t.Fatal(err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(cfg.Dir, "dev", journalFile)); err != nil || fi.Size() != 0 {
		t.Errorf("journal not truncated by graceful close")
	}
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st, err := f2.Status(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 10_000 {
		t.Errorf("resumed with %d writes, want 10000", st.Writes)
	}
}

// TestThousandDevices hosts 1000 tiny devices under a 32-engine budget
// — the fleet-scale smoke the acceptance criteria name. Skipped in
// -short runs.
func TestThousandDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale test")
	}
	cfg := testConfig(t)
	cfg.MaxResident = 32
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	const devices = 1000
	spec := DeviceSpec{
		Blocks:        256,
		BlocksPerPage: 8,
		MeanEndurance: 1e6,
	}
	for i := 0; i < devices; i++ {
		s := spec
		s.Seed = uint64(i + 1)
		id := deviceIDNum(i)
		if err := f.Create(id, s); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
	}
	for i := 0; i < devices; i++ {
		if _, err := f.Write(ctx, deviceIDNum(i), 1_000); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	h := f.Health()
	if h.Devices != devices {
		t.Errorf("hosting %d devices, want %d", h.Devices, devices)
	}
	if h.Resident > 32 {
		t.Errorf("%d resident engines, budget 32", h.Resident)
	}
	for _, i := range []int{0, 499, 999} {
		st, err := f.Status(ctx, deviceIDNum(i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Writes != 1_000 {
			t.Errorf("device %d: %d writes, want 1000", i, st.Writes)
		}
	}
}

func deviceIDNum(i int) string {
	return "dev-" + string([]byte{byte('0' + i/1000%10), byte('0' + i/100%10), byte('0' + i/10%10), byte('0' + i%10)})
}
