package ecc

import (
	"runtime"
	"testing"

	"wlreviver/internal/ckpt"
)

// TestLoadStateBoundsCounts feeds LoadState a CRC-valid section whose
// usage count is within the block bound but far beyond the bytes that
// follow it: the decode must fail before sizing the usage map from that
// count.
func TestLoadStateBoundsCounts(t *testing.T) {
	const blocks = 1 << 24
	e := ckpt.NewEncoder()
	e.Begin("ecc")
	e.U32(1 << 20)
	e.U64(0)
	e.U16(1)
	e.End()
	d, err := ckpt.NewDecoder(e.Finish())
	if err != nil || d.Section("ecc") != nil {
		t.Fatal("image is not well framed")
	}
	ecp, err := NewECP(6, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = ecp.LoadState(d)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Errorf("LoadState = %v after allocating %d bytes; want an error and under 1 MiB", err, n)
	}
}
