package obs

import (
	"bytes"
	"runtime"
	"testing"

	"wlreviver/internal/ckpt"
)

// metricsSection frames payload as one checkpoint section, so inputs get
// past the CRC to LoadState.
const metricsSection = "metrics"

func frameMetrics(payload []byte) []byte {
	e := ckpt.NewEncoder()
	e.Begin(metricsSection)
	for _, b := range payload {
		e.U8(b)
	}
	e.End()
	return e.Finish()
}

func openMetrics(tb testing.TB, img []byte) *ckpt.Decoder {
	tb.Helper()
	dec, err := ckpt.NewDecoder(img)
	if err != nil || dec.Section(metricsSection) != nil {
		tb.Fatal("image is not well framed")
	}
	return dec
}

// TestMetricsLoadStateBoundsCounts: a counter or snapshot count the
// section's bytes cannot hold is refused before it sizes an allocation.
func TestMetricsLoadStateBoundsCounts(t *testing.T) {
	for name, counts := range map[string][2]uint32{
		"counters":  {1 << 20, 0},
		"snapshots": {0, 1 << 20},
	} {
		e := ckpt.NewEncoder()
		e.Begin(metricsSection)
		e.U32(counts[0])
		if counts[0] == 0 {
			e.U32(counts[1])
		}
		e.U64(0)
		e.End()
		dec := openMetrics(t, e.Finish())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := NewMetrics().LoadState(dec)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
			t.Errorf("%s: LoadState = %v after allocating %d bytes; want an error and under 1 MiB", name, err, n)
		}
	}
}

// FuzzMetricsLoadState feeds arbitrary section payloads to
// Metrics.LoadState. It must reject malformed payloads with an error,
// never panic or allocate without bound, and an accepted payload must
// re-save to the same bytes. The seed corpus in
// testdata/fuzz/FuzzMetricsLoadState holds an empty accumulator
// (seed-00), every kind plus snapshots and death wear (01), an unknown
// counter name (02), names out of order (03) and an oversized snapshot
// count (04).
func FuzzMetricsLoadState(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		img := frameMetrics(payload)
		dec := openMetrics(t, img)
		m := NewMetrics()
		if m.LoadState(dec) != nil || dec.Close() != nil {
			return
		}
		e := ckpt.NewEncoder()
		e.Begin(metricsSection)
		m.SaveState(e)
		e.End()
		if got := e.Finish(); !bytes.Equal(got, img) {
			t.Fatalf("accepted payload re-saves to different bytes:\n got %x\nwant %x", got, img)
		}
	})
}
