package sim

import (
	"encoding/json"
	"sync"
	"testing"

	"wlreviver/internal/obs"
	"wlreviver/internal/trace"
)

// reportSet runs Fig6 on the given scale with a metrics observer on
// every engine and returns the result text plus each engine's report.
func reportSet(t *testing.T, s Scale) (string, map[string]obs.Report) {
	t.Helper()
	var mu sync.Mutex
	byKey := make(map[string]*obs.Metrics)
	s.Observe = func(key string) obs.Observer {
		m := obs.NewMetrics()
		mu.Lock()
		byKey[key] = m
		mu.Unlock()
		return m
	}
	s.SnapshotEvery = s.Blocks * 100
	res, err := CurveFigure(s, "fig6", "mg")
	if err != nil {
		t.Fatal(err)
	}
	reports := make(map[string]obs.Report, len(byKey))
	for key, m := range byKey {
		reports[key] = m.Report()
	}
	return res.String(), reports
}

// TestObserverDoesNotPerturb is the core passivity guarantee: attaching
// observers changes neither an experiment's result nor its determinism
// across worker counts, and the collected metrics are themselves
// identical for any -workers value.
func TestObserverDoesNotPerturb(t *testing.T) {
	s := TinyScale()
	s.Workers = 1
	plain, err := CurveFigure(s, "fig6", "mg")
	if err != nil {
		t.Fatal(err)
	}
	serialOut, serialReports := reportSet(t, s)
	if serialOut != plain.String() {
		t.Error("observed run diverged from unobserved run")
	}

	s.Workers = 4
	parallelOut, parallelReports := reportSet(t, s)
	if parallelOut != serialOut {
		t.Error("observed output differs across worker counts")
	}
	serialJSON, err := json.Marshal(serialReports)
	if err != nil {
		t.Fatal(err)
	}
	parallelJSON, err := json.Marshal(parallelReports)
	if err != nil {
		t.Fatal(err)
	}
	if string(serialJSON) != string(parallelJSON) {
		t.Error("metrics reports differ across worker counts")
	}
	if len(serialReports) == 0 {
		t.Fatal("no engines were observed")
	}
	for key, r := range serialReports {
		if len(r.Counters) == 0 {
			t.Errorf("%s: no events recorded", key)
		}
	}
}

// TestSnapshotCadence pins the snapshot pacing contract: samples land
// exactly every SnapshotEvery simulated writes.
func TestSnapshotCadence(t *testing.T) {
	s := TinyScale()
	cfg := s.config()
	cfg.Protector = ProtectorWLReviver
	m := obs.NewMetrics()
	cfg.Observer = m
	cfg.SnapshotEvery = 512
	gen, err := trace.NewUniform(cfg.Blocks, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 10 * 512
	if got := e.RunN(writes); got != writes {
		t.Fatalf("ran %d of %d writes", got, writes)
	}
	snaps := m.Snapshots()
	if len(snaps) != 10 {
		t.Fatalf("got %d snapshots, want 10", len(snaps))
	}
	for i, snap := range snaps {
		if want := uint64(i+1) * 512; snap.Writes != want {
			t.Errorf("snapshot %d at %d writes, want %d", i, snap.Writes, want)
		}
	}
	if got, _ := e.Metrics(); got != m {
		t.Error("Engine.Metrics did not return the attached accumulator")
	}
}

// TestObserverEventCountsPinned locks a tiny deterministic scenario's
// event stream: any change to these numbers is a change to what the
// simulation does (or to where probes fire) and must be deliberate.
func TestObserverEventCountsPinned(t *testing.T) {
	cfg := TinyScale().config()
	cfg.Protector = ProtectorWLReviver
	m := obs.NewMetrics()
	cfg.Observer = m
	gen, err := trace.NewUniform(cfg.Blocks, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	e.RunN(500_000)

	counters := m.Counters()
	if counters[obs.CounterBlockFailed] == 0 || counters[obs.CounterRevived] == 0 {
		t.Fatalf("scenario produced no failures/revivals: %v", counters)
	}
	// Cross-layer consistency: every block failure is observed exactly
	// where the device records it, and WL-Reviver links every failed
	// block at least once (cyclic chains recycle and relink, so revivals
	// may exceed failures).
	if counters[obs.CounterRevived] < counters[obs.CounterBlockFailed] {
		t.Errorf("revived %d < block_failed %d",
			counters[obs.CounterRevived], counters[obs.CounterBlockFailed])
	}
	if counters[obs.CounterBlockFailed] != e.Device().DeadBlocks() {
		t.Errorf("block_failed %d != device dead blocks %d",
			counters[obs.CounterBlockFailed], e.Device().DeadBlocks())
	}
	if r := m.Report(); r.WearAtDeath == nil || r.WearAtDeath.Count != counters[obs.CounterBlockFailed] {
		t.Errorf("wear-at-death summary inconsistent with block_failed: %+v", r.WearAtDeath)
	}
	// Reference run: tiny scale, uniform seed-5 workload, ECP6 + Start-Gap
	// + WL-Reviver, 500k-write budget (the run retires every page and
	// stops first). Pinned from the run this test was introduced with;
	// re-pinned when the suspended-delivery fixes (orphan-sweep skip,
	// buffer supersede, starved-walk retargeting) shifted late-life
	// maintenance traffic slightly.
	want := map[string]uint64{
		obs.CounterBlockFailed: 946,
		obs.CounterCellFailed:  7984,
		obs.CounterRevived:     946,
		obs.CounterGapMoved:    16076,
		obs.CounterPageRetired: 64,
		obs.CounterSnapshots:   313,
	}
	if len(counters) != len(want) {
		t.Errorf("counter set %v, want keys of %v", counters, want)
	}
	for name, w := range want {
		if counters[name] != w {
			t.Errorf("%s = %d, want %d", name, counters[name], w)
		}
	}
}
