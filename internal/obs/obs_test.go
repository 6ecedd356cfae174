package obs

import (
	"encoding/json"
	"testing"
)

// feed drives one fixed event stream into an observer.
func feed(o Observer) {
	for i := 0; i < 5; i++ {
		o.Event(Event{Kind: CellFailed, A: uint64(i), B: uint64(i + 1)})
	}
	o.Event(Event{Kind: BlockFailed, A: 3, B: 900})
	o.Event(Event{Kind: BlockFailed, A: 7, B: 1100})
	o.Event(Event{Kind: Revived, A: 3, B: 40})
	o.Event(Event{Kind: RemapCacheHit, A: 3})
	o.Event(Event{Kind: RemapCacheMiss, A: 7})
	o.Event(Event{Kind: GapMoved, A: 12})
	o.Event(Event{Kind: RegionSwapped, A: 1, B: 2})
	o.Event(Event{Kind: PageRetired})
	o.Snapshot(Snapshot{Writes: 100, AccessRatio: 1.5})
	o.Snapshot(Snapshot{Writes: 200, AccessRatio: 2.5})
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	feed(m)
	want := map[string]uint64{
		CounterCellFailed:     5,
		CounterBlockFailed:    2,
		CounterRevived:        1,
		CounterRemapCacheHit:  1,
		CounterRemapCacheMiss: 1,
		CounterGapMoved:       1,
		CounterRegionSwapped:  1,
		CounterPageRetired:    1,
		CounterSnapshots:      2,
	}
	got := m.Counters()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("counter %s = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d counters, want %d: %v", len(got), len(want), got)
	}
	if m.Counter(CounterBlockFailed) != 2 {
		t.Errorf("Counter(block_failed) = %d", m.Counter(CounterBlockFailed))
	}
}

func TestMetricsSnapshots(t *testing.T) {
	m := NewMetrics()
	if _, ok := m.LastSnapshot(); ok {
		t.Fatal("LastSnapshot on empty Metrics reported ok")
	}
	feed(m)
	snaps := m.Snapshots()
	if len(snaps) != 2 || snaps[0].Writes != 100 || snaps[1].Writes != 200 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	last, ok := m.LastSnapshot()
	if !ok || last.Writes != 200 {
		t.Fatalf("LastSnapshot = %+v, %v", last, ok)
	}
}

func TestMetricsReportDeterministic(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	feed(a)
	feed(b)
	ja, err := json.Marshal(a.Report())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Report())
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("identical streams marshalled differently:\n%s\n%s", ja, jb)
	}
}

func TestReportSummaries(t *testing.T) {
	m := NewMetrics()
	feed(m)
	r := m.Report()
	if r.WearAtDeath == nil || r.WearAtDeath.Count != 2 {
		t.Fatalf("WearAtDeath = %+v", r.WearAtDeath)
	}
	if r.WearAtDeath.Min != 900 || r.WearAtDeath.Max != 1100 {
		t.Errorf("WearAtDeath range = [%g, %g]", r.WearAtDeath.Min, r.WearAtDeath.Max)
	}
	if r.WearAtDeathHist == nil || len(r.WearAtDeathHist.Counts) != 16 {
		t.Fatalf("WearAtDeathHist = %+v", r.WearAtDeathHist)
	}
	if r.AccessRatio == nil || r.AccessRatio.Count != 2 || r.AccessRatio.Mean != 2.0 {
		t.Fatalf("AccessRatio = %+v", r.AccessRatio)
	}
}

func TestReportEmptyMetrics(t *testing.T) {
	r := NewMetrics().Report()
	if r.WearAtDeath != nil || r.WearAtDeathHist != nil || r.AccessRatio != nil {
		t.Fatalf("empty Metrics produced summaries: %+v", r)
	}
	if len(r.Snapshots) != 0 {
		t.Fatalf("empty Metrics produced snapshots: %+v", r.Snapshots)
	}
}

func TestWearAtDeathHistogramDegenerate(t *testing.T) {
	m := NewMetrics()
	m.Event(Event{Kind: BlockFailed, A: 1, B: 500})
	m.Event(Event{Kind: BlockFailed, A: 2, B: 500})
	h := m.WearAtDeathHistogram(8)
	if h == nil || h.Total() != 2 {
		t.Fatalf("degenerate histogram = %+v", h)
	}
}

// TestCounterNames pins the one name table: each Kind's name is its
// Counter* constant, the last slot names the snapshot count, and no two
// slots share a name (a checkpoint or report keyed by name would merge
// them).
func TestCounterNames(t *testing.T) {
	want := map[Kind]string{
		BlockFailed:     CounterBlockFailed,
		CellFailed:      CounterCellFailed,
		Revived:         CounterRevived,
		RemapCacheHit:   CounterRemapCacheHit,
		RemapCacheMiss:  CounterRemapCacheMiss,
		GapMoved:        CounterGapMoved,
		RegionSwapped:   CounterRegionSwapped,
		DecoderRemapped: CounterDecoderRemapped,
		PageRelocated:   CounterPageRelocated,
		PageRetired:     CounterPageRetired,
	}
	if len(want) != int(numKinds) {
		t.Fatalf("test covers %d kinds, the enum has %d", len(want), numKinds)
	}
	for k, name := range want {
		if k.String() != name || counterNames[k] != name {
			t.Errorf("kind %d named %q / %q, want %q", k, k.String(), counterNames[k], name)
		}
	}
	if counterNames[numKinds] != CounterSnapshots {
		t.Errorf("snapshot slot named %q, want %q", counterNames[numKinds], CounterSnapshots)
	}
	seen := make(map[string]bool)
	for i, name := range counterNames {
		if name == "" || seen[name] {
			t.Errorf("slot %d name %q is empty or repeated", i, name)
		}
		seen[name] = true
	}
	if got := numKinds.String(); got != "Kind(10)" {
		t.Errorf("out-of-range kind String() = %q", got)
	}
}
