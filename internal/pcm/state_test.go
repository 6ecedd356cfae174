package pcm

import (
	"runtime"
	"testing"

	"wlreviver/internal/ckpt"
)

// TestLoadStateBoundsCounts feeds LoadState a CRC-valid section whose
// failure-index count is within the block bound but far beyond the
// bytes that follow it: the decode must fail before sizing the index
// map and order slice from that count.
func TestLoadStateBoundsCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBlocks = 1 << 21
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := ckpt.NewEncoder()
	e.Begin("pcm")
	e.U64s(dev.wear)
	e.U64s(dev.nextFail)
	e.U64s(dev.exactBits.Words())
	e.U64s(dev.deadBits.Words())
	e.U32(1 << 20)
	e.U64(0)
	e.U16(1)
	e.F64(0.5)
	e.End()
	d, err := ckpt.NewDecoder(e.Finish())
	if err != nil || d.Section("pcm") != nil {
		t.Fatal("image is not well framed")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = dev.LoadState(d)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Errorf("LoadState = %v after allocating %d bytes; want an error and under 1 MiB", err, n)
	}
}
