package pcm

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/rng"
)

// horizonOracle replays the device's failure-horizon countdown with a
// brute-force full scan in place of the incremental rescan. The device
// must arm exactly the (horizon, rescanIn) sequence this oracle arms:
// both fields are checkpointed, so any drift changes checkpoint images.
type horizonOracle struct {
	horizon, rescanIn uint64
}

// rescan is recomputeHorizon as an O(NumBlocks) scan of every margin.
func (o *horizonOracle) rescan(d *Device) {
	m := uint64(math.MaxUint64)
	for b, w := range d.wear {
		m = min(m, d.nextFail[b]-w)
	}
	o.horizon = m - 1
	if o.horizon == 0 {
		o.rescanIn = uint64(len(d.wear))
	}
}

// write advances the oracle past one Write the device just serviced:
// the fast path, a deferred checked write, or a checked write that
// rescans the device's post-write state.
func (o *horizonOracle) write(d *Device) {
	switch {
	case o.horizon > 0:
		o.horizon--
	case o.rescanIn > 0:
		o.rescanIn--
	default:
		o.rescan(d)
	}
}

// Stream operations a horizon schedule interleaves.
const (
	opWrite       = iota // Write
	opWriteNoFail        // WriteNoFail, falling back to Write as the backend does
	opMarkDead
	opPeek       // PeekNextFailure: materializes a threshold, raising a margin
	opPeekLowest // PeekNextFailure on lowestBoundBlock instead of the op's block
)

type horizonOp struct {
	kind  int
	block BlockID
}

// runHorizonSchedule drives a fresh device through ops, checking the
// device against the oracle after every operation. When ckptAt is in
// range, the device is checkpointed before op ckptAt and replaced by a
// NewDevice + LoadState copy that carries on. It returns the final
// checkpoint image.
func runHorizonSchedule(t testing.TB, cfg Config, ops []horizonOp, ckptAt int) []byte {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var o horizonOracle
	o.rescan(d)
	check := func(i int) {
		if d.horizon != o.horizon || d.rescanIn != o.rescanIn {
			t.Fatalf("N=%d op %d: (horizon, rescanIn) = (%d, %d), full scan arms (%d, %d)",
				cfg.NumBlocks, i, d.horizon, d.rescanIn, o.horizon, o.rescanIn)
		}
	}
	check(-1)
	for i, op := range ops {
		if i == ckptAt {
			d = reloadDevice(t, d)
		}
		switch op.kind {
		case opWrite:
			d.Write(op.block)
			o.write(d)
		case opWriteNoFail:
			if d.WriteNoFail(op.block) {
				o.horizon--
			} else {
				d.Write(op.block)
				o.write(d)
			}
		case opMarkDead:
			d.MarkDead(op.block)
		case opPeek:
			d.PeekNextFailure(op.block)
		case opPeekLowest:
			d.PeekNextFailure(lowestBoundBlock(d))
		}
		check(i)
	}
	return saveDevice(d)
}

func saveDevice(d *Device) []byte {
	enc := ckpt.NewEncoder()
	enc.Begin("pcm")
	d.SaveState(enc)
	enc.End()
	return enc.Finish()
}

// reloadDevice round-trips d through a checkpoint into a new device.
func reloadDevice(t testing.TB, d *Device) *Device {
	t.Helper()
	return loadDevice(t, d.cfg, saveDevice(d))
}

// loadDevice builds a device from cfg and restores the image into it.
func loadDevice(t testing.TB, cfg Config, image []byte) *Device {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ckpt.NewDecoder(image)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Section("pcm"); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadState(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkHorizonSchedule runs ops uninterrupted and again with a
// checkpoint/restore at ckptAt; both must match the oracle throughout
// and end in the same checkpoint image.
func checkHorizonSchedule(t testing.TB, cfg Config, ops []horizonOp, ckptAt int) {
	t.Helper()
	whole := runHorizonSchedule(t, cfg, ops, -1)
	resumed := runHorizonSchedule(t, cfg, ops, ckptAt)
	if !bytes.Equal(whole, resumed) {
		t.Fatalf("N=%d: checkpoint after restore at op %d differs from the uninterrupted device", cfg.NumBlocks, ckptAt)
	}
}

// lowestBoundBlock returns the block whose lower-bound (unmaterialized)
// threshold leaves the smallest margin: peeking it raises the margin a
// rescan is most likely bound by.
func lowestBoundBlock(d *Device) BlockID {
	best, m := BlockID(0), uint64(math.MaxUint64)
	for b, w := range d.wear {
		if !d.exactBits.Test(uint64(b)) && d.nextFail[b]-w < m {
			best, m = BlockID(b), d.nextFail[b]-w
		}
	}
	return best
}

// TestIncrementalHorizonMatchesFullScan checks that the incremental
// rescan arms exactly the full scan's (horizon, rescanIn) after every
// operation, across geometries around the chunk size (a single block, a
// partial single chunk, one exact chunk, a partial last chunk, and bench
// size plus Start-Gap's gap block) and streams that reach the degraded
// regime of short horizons, with MarkDead, PeekNextFailure and a
// mid-stream checkpoint restore interleaved.
func TestIncrementalHorizonMatchesFullScan(t *testing.T) {
	streams := []struct {
		name      string
		mean, cov float64
		perBlock  int // writes per block over the stream
		pick      func(src *rng.Source, i int, n uint64) BlockID
	}{
		{name: "uniform", mean: 48, cov: 0.1, perBlock: 64,
			pick: func(src *rng.Source, _ int, n uint64) BlockID { return BlockID(src.Uint64n(n)) }},
		// One block at a time, moving to the next every 512 writes.
		{name: "hammer", mean: 48, cov: 0.1, perBlock: 64,
			pick: func(_ *rng.Source, i int, n uint64) BlockID { return BlockID(uint64(i/512) * 0x9E3779B1 % n) }},
		// Perfectly even wear, as a strong leveler produces: every block
		// nears its next failure together, so horizons stay short.
		{name: "sweep", mean: 48, cov: 0.1, perBlock: 64,
			pick: func(_ *rng.Source, i int, n uint64) BlockID { return BlockID(uint64(i) % n) }},
		{name: "low-endurance-high-cov", mean: 12, cov: 0.6, perBlock: 40,
			pick: func(src *rng.Source, _ int, n uint64) BlockID { return BlockID(src.Uint64n(n)) }},
	}
	for _, n := range []uint64{1, 63, 64, 65, 1<<13 + 1} {
		for _, s := range streams {
			cfg := Config{
				NumBlocks:     n,
				BlockBytes:    64,
				CellsPerBlock: 8,
				MeanEndurance: s.mean,
				LifetimeCoV:   s.cov,
				Seed:          n,
			}
			writes := s.perBlock * int(max(n, 256))
			src := rng.New(n*31 + uint64(len(s.name)))
			ops := make([]horizonOp, writes)
			for i := range ops {
				op := horizonOp{kind: opWrite, block: s.pick(src, i, n)}
				switch r := src.Uint64n(128); {
				case r == 0:
					op.kind = opMarkDead
				case r == 1:
					op.kind = opPeekLowest
				case r == 2:
					op.kind = opPeek
				case r < 64:
					op.kind = opWriteNoFail
				}
				ops[i] = op
			}
			t.Run(s.name+"/N="+strconv.FormatUint(n, 10), func(t *testing.T) {
				checkHorizonSchedule(t, cfg, ops, writes/2+1)
			})
		}
	}
}

// FuzzHorizonSchedule checks the oracle equality of
// TestIncrementalHorizonMatchesFullScan under fuzz-chosen geometry,
// endurance model, operation sequence and checkpoint point. Each byte
// of seq is one operation (top two bits the kind, low six the block
// offset); the sequence repeats, shifted by one block per pass, until
// writes operations have run.
func FuzzHorizonSchedule(f *testing.F) {
	f.Add(uint16(0), uint8(4), uint8(30), []byte{0, 1, 2}, uint16(200), uint16(100))
	f.Add(uint16(64), uint8(40), uint8(25), []byte{0x05, 0x3f, 0x45, 0x80, 0xc7, 0x10}, uint16(6000), uint16(2500))
	f.Add(uint16(129), uint8(10), uint8(90), []byte{0x41, 0x02, 0x43, 0x3f, 0x3e}, uint16(9000), uint16(4000))
	f.Add(uint16(2048), uint8(2), uint8(50), []byte{0x00, 0x20, 0x3f, 0x81, 0xff}, uint16(16000), uint16(0))
	f.Fuzz(func(t *testing.T, n uint16, endurance, cov uint8, seq []byte, writes, ckptAt uint16) {
		if len(seq) == 0 {
			t.Skip("no operations")
		}
		cfg := Config{
			NumBlocks:     uint64(n)%(1<<11+1) + 1,
			BlockBytes:    64,
			CellsPerBlock: 8,
			MeanEndurance: float64(endurance) + 2,
			LifetimeCoV:   float64(cov) / 100,
			Seed:          uint64(n),
		}
		ops := make([]horizonOp, int(writes)%(1<<14))
		for i := range ops {
			c := seq[i%len(seq)]
			pass := uint64(i / len(seq))
			ops[i] = horizonOp{kind: int(c >> 6), block: BlockID((uint64(c&63) + pass) % cfg.NumBlocks)}
		}
		checkHorizonSchedule(t, cfg, ops, int(ckptAt)%(len(ops)+1))
	})
}
