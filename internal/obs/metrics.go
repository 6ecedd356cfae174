package obs

import (
	"fmt"

	"wlreviver/internal/stats"
)

// Counter names: each Kind's counter and the snapshot count, as they
// appear in Report, Counters and checkpoints.
const (
	CounterBlockFailed     = "block_failed"
	CounterCellFailed      = "cell_failed"
	CounterRevived         = "revived"
	CounterRemapCacheHit   = "remap_cache_hit"
	CounterRemapCacheMiss  = "remap_cache_miss"
	CounterGapMoved        = "gap_moved"
	CounterRegionSwapped   = "region_swapped"
	CounterDecoderRemapped = "decoder_remapped"
	CounterPageRelocated   = "page_relocated"
	CounterPageRetired     = "page_retired"
	CounterSnapshots       = "snapshots"
)

// counterNames names Metrics' counter slots: one per Kind, then the
// snapshot count in slot numKinds. Counters are named only when they
// are reported or checkpointed.
var counterNames = [numKinds + 1]string{
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
	numKinds:        CounterSnapshots,
}

// String returns the kind's counter name, e.g. "gap_moved".
func (k Kind) String() string {
	if k < numKinds {
		return counterNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// counterSlot returns the counter slot a name denotes.
func counterSlot(name string) (int, bool) {
	for i, n := range counterNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Metrics is the standard Observer: it counts events by Kind and keeps
// the snapshot series and the wear-at-death sample set. It is not safe
// for concurrent use — attach one Metrics per engine (the experiment
// harness's Scale.Observe factory does exactly that).
type Metrics struct {
	counters  [numKinds + 1]uint64 // indexed by Kind; slot numKinds counts snapshots
	snapshots []Snapshot
	deathWear []float64 // device wear of each block at death
}

// NewMetrics returns an empty accumulator.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter returns a named counter's value (0 for a name it does not
// keep).
func (m *Metrics) Counter(name string) uint64 {
	if i, ok := counterSlot(name); ok {
		return m.counters[i]
	}
	return 0
}

// Counters returns the nonzero counters by name.
func (m *Metrics) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for i, v := range m.counters {
		if v != 0 {
			out[counterNames[i]] = v
		}
	}
	return out
}

// Snapshots returns the snapshot series in emission order.
func (m *Metrics) Snapshots() []Snapshot {
	out := make([]Snapshot, len(m.snapshots))
	copy(out, m.snapshots)
	return out
}

// LastSnapshot returns the most recent snapshot, if any was emitted.
func (m *Metrics) LastSnapshot() (Snapshot, bool) {
	if len(m.snapshots) == 0 {
		return Snapshot{}, false
	}
	return m.snapshots[len(m.snapshots)-1], true
}

// Event implements Observer.
func (m *Metrics) Event(e Event) {
	m.counters[e.Kind]++
	if e.Kind == BlockFailed {
		m.deathWear = append(m.deathWear, float64(e.B))
	}
}

// Snapshot implements Observer.
func (m *Metrics) Snapshot(s Snapshot) {
	m.counters[numKinds]++
	m.snapshots = append(m.snapshots, s)
}

// WearAtDeathHistogram buckets the wear-at-death samples into n bins
// spanning the observed range, or nil with no block failures observed.
func (m *Metrics) WearAtDeathHistogram(n int) *stats.Histogram {
	if len(m.deathWear) == 0 {
		return nil
	}
	min, max := m.deathWear[0], m.deathWear[0]
	for _, w := range m.deathWear {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if max == min {
		max = min + 1
	}
	h := stats.NewHistogram(min, max+1, n)
	for _, w := range m.deathWear {
		h.Add(w)
	}
	return h
}

// Summary condenses a sample distribution for the JSON report.
type Summary struct {
	Count  uint64  `json:"count"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	CoV    float64 `json:"cov"`
	Min    float64 `json:"min"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
}

// summarize builds a Summary over values (nil for an empty sample).
func summarize(values []float64) *Summary {
	if len(values) == 0 {
		return nil
	}
	var w stats.Welford
	min, max := values[0], values[0]
	for _, v := range values {
		w.Add(v)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return &Summary{
		Count:  w.Count(),
		Mean:   w.Mean(),
		StdDev: w.StdDev(),
		CoV:    w.CoV(),
		Min:    min,
		P50:    stats.Percentile(values, 50),
		P90:    stats.Percentile(values, 90),
		Max:    max,
	}
}

// HistogramData is a histogram's serialisable form.
type HistogramData struct {
	Min    float64  `json:"min"`
	Max    float64  `json:"max"`
	Counts []uint64 `json:"counts"`
}

// Report is Metrics' serialisable form: the nonzero counters by name, the
// snapshot series, and the wear/latency distribution summaries. Its
// encoding/json output is deterministic — map keys marshal sorted — so
// two identical event streams produce byte-identical JSON.
type Report struct {
	Counters map[string]uint64 `json:"counters"`
	// Snapshots is the periodic state series (omitted when none fired).
	Snapshots []Snapshot `json:"snapshots,omitempty"`
	// WearAtDeath summarises device wear of blocks at death — the
	// realised endurance distribution.
	WearAtDeath *Summary `json:"wear_at_death,omitempty"`
	// WearAtDeathHist buckets the same samples (16 bins).
	WearAtDeathHist *HistogramData `json:"wear_at_death_hist,omitempty"`
	// AccessRatio summarises the snapshot series' accesses-per-request
	// samples — the latency proxy the paper's Table II reports.
	AccessRatio *Summary `json:"access_ratio,omitempty"`
}

// Report assembles the serialisable report.
func (m *Metrics) Report() Report {
	r := Report{Counters: m.Counters(), Snapshots: m.Snapshots()}
	r.WearAtDeath = summarize(m.deathWear)
	if h := m.WearAtDeathHistogram(16); h != nil {
		r.WearAtDeathHist = &HistogramData{Min: h.Min, Max: h.Max, Counts: h.Counts()}
	}
	if len(m.snapshots) > 0 {
		ratios := make([]float64, 0, len(m.snapshots))
		for _, s := range m.snapshots {
			if s.AccessRatio > 0 {
				ratios = append(ratios, s.AccessRatio)
			}
		}
		r.AccessRatio = summarize(ratios)
	}
	return r
}

var _ Observer = (*Metrics)(nil)
