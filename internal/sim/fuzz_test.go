package sim

import (
	"runtime"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/trace"
)

// fuzzEngine builds the small reference engine the restore fuzzer
// targets: WL-Reviver over Start-Gap with a remap cache, every layer of
// the restore path live.
func fuzzEngine(tb testing.TB) *Engine {
	cfg := DefaultConfig()
	cfg.Blocks = 1 << 8
	cfg.BlocksPerPage = 8
	cfg.MeanEndurance = 120
	cfg.GapWritePeriod = 10
	cfg.Seed = 7
	cfg.CacheKB = 1
	gen, err := trace.NewBenchmark("ocean", cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// FuzzRestoreRejectsCorrupt drives attacker-controlled bytes through
// the full engine restore path. Corrupt or truncated checkpoints must
// come back as errors — never a panic, never a silently inconsistent
// engine: when a restore is accepted, the engine must still run and
// re-checkpoint cleanly.
func FuzzRestoreRejectsCorrupt(f *testing.F) {
	seed := fuzzEngine(f)
	seed.RunN(2_000)
	valid, err := seed.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/3] ^= 0x20
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		e := fuzzEngine(t)
		if err := e.RestoreCheckpoint(data); err != nil {
			return // rejected loudly — the required outcome for corruption
		}
		// Accepted: the image passed framing, CRC and every layer's
		// validation. The engine must behave like a live one.
		e.RunN(500)
		if _, err := e.Checkpoint(); err != nil {
			t.Fatalf("accepted restore left engine un-checkpointable: %v", err)
		}
	})
}

// TestTable2HarnessBoundsCellCount: a cell count the section's bytes
// cannot hold is refused before it sizes an allocation.
func TestTable2HarnessBoundsCellCount(t *testing.T) {
	e := ckpt.NewEncoder()
	e.Begin("harness")
	e.Bool(false) // done
	e.U64(0)      // prevReq
	e.U64(0)      // prevAcc
	e.U64(0)      // ratioIdx
	e.U32(1 << 16)
	e.U64(0)
	e.End()
	img := e.Finish()
	dec, err := ckpt.NewDecoder(img)
	if err != nil || dec.Section("harness") != nil {
		t.Fatal("image is not well framed")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var h table2Harness
	err = h.load(dec)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Fatalf("load = %v after allocating %d bytes; want an error and under 1 MiB", err, n)
	}
}
