package sim

import (
	"errors"
	"fmt"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/wear"
)

// ErrCrashed is returned by checkpoint-aware runners when the
// CheckpointPlan's sweep-wide crash budget (ArmTotalCrash) halts the
// run. A crashed run's in-memory results are discarded — exactly like a
// process kill — and a subsequent run with Resume set converges to the
// uninterrupted result.
var ErrCrashed = errors.New("sim: run halted by injected crash fault")

// ckptSaver and ckptLoader are the per-layer checkpoint interfaces:
// SaveState appends the layer's mutable state to the open section, and
// LoadState restores it into a layer freshly built from the identical
// configuration.
type ckptSaver interface{ SaveState(*ckpt.Encoder) }
type ckptLoader interface{ LoadState(*ckpt.Decoder) error }

// Checkpoint serializes the engine's complete mutable state — every
// layer plus the write cursor and workload stream position — into a
// self-describing, CRC-framed image (package ckpt). The configuration
// itself is not stored beyond a fingerprint: Restore rebuilds the system
// from the same Config and overlays this state, which keeps derived
// structures (randomizer tables, alias samplers, calibrated weights) out
// of the file.
func (e *Engine) Checkpoint() ([]byte, error) {
	enc := ckpt.NewEncoder()
	if err := e.encodeState(enc); err != nil {
		return nil, err
	}
	return enc.Finish(), nil
}

// RestoreCheckpoint restores an image produced by Checkpoint into an
// engine freshly built from the identical Config and workload. On any
// error (corruption, truncation, configuration mismatch) the engine's
// state is unspecified and the engine must be discarded — build a new
// one before retrying.
func (e *Engine) RestoreCheckpoint(data []byte) error {
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		return err
	}
	if err := e.decodeState(d); err != nil {
		return err
	}
	return d.Close()
}

// encodeState writes the engine's sections, in fixed order, to enc.
// Callers may append further sections before Finish (the experiment
// driver stores its harness state in the same file).
func (e *Engine) encodeState(enc *ckpt.Encoder) error {
	e.encodeConfig(enc)

	gs, ok := e.gen.(ckptSaver)
	if !ok {
		return fmt.Errorf("sim: workload %q does not support checkpointing", e.gen.Name())
	}
	enc.Begin("workload")
	gs.SaveState(enc)
	enc.End()

	enc.Begin("engine")
	enc.U64(e.writes)
	enc.Bool(e.stopped)
	enc.U64(e.nextSnap)
	if e.batchGen != nil {
		// The unconsumed tail of the address-prefetch buffer: the workload
		// generator's state has already advanced past these addresses.
		enc.U64s(e.addrBuf[e.addrPos:])
	} else {
		enc.U64s(nil)
	}
	enc.End()

	enc.Begin("device")
	e.dev.SaveState(enc)
	enc.End()

	es, ok := e.be.ECC.(ckptSaver)
	if !ok {
		return fmt.Errorf("sim: ECC scheme %q does not support checkpointing", e.be.ECC.Name())
	}
	enc.Begin("ecc")
	es.SaveState(enc)
	enc.End()

	// The Static leveler is stateless; its section is intentionally empty.
	enc.Begin("leveler")
	if _, static := e.lv.(wear.Static); !static {
		ls, ok := e.lv.(ckptSaver)
		if !ok {
			return fmt.Errorf("sim: leveler %q does not support checkpointing", e.lv.Name())
		}
		ls.SaveState(enc)
	}
	enc.End()

	enc.Begin("os")
	e.os.SaveState(enc)
	enc.End()

	ps, ok := e.prot.(ckptSaver)
	if !ok {
		return fmt.Errorf("sim: protector %q does not support checkpointing", e.prot.Name())
	}
	enc.Begin("protector")
	ps.SaveState(enc)
	enc.End()

	if e.remapCache != nil {
		enc.Begin("cache")
		e.remapCache.SaveState(enc)
		enc.End()
	}

	// The observer section is always present so the section sequence does
	// not depend on runtime flags; byte-identical resumed metrics require
	// resuming with the same observer configuration.
	enc.Begin("observer")
	if osv, ok := e.observer.(ckptSaver); ok {
		enc.Bool(true)
		osv.SaveState(enc)
	} else {
		enc.Bool(false)
	}
	enc.End()
	return nil
}

// decodeState reads the engine's sections from d, in the encodeState
// order, after validating the configuration fingerprint. On error the
// engine is partially restored and must be discarded by the caller.
func (e *Engine) decodeState(d *ckpt.Decoder) error {
	if err := e.decodeConfig(d); err != nil {
		return err
	}

	if err := d.Section("workload"); err != nil {
		return err
	}
	gl, ok := e.gen.(ckptLoader)
	if !ok {
		return fmt.Errorf("sim: workload %q does not support checkpointing", e.gen.Name())
	}
	if err := gl.LoadState(d); err != nil {
		return err
	}

	if err := d.Section("engine"); err != nil {
		return err
	}
	writes := d.U64()
	stopped := d.Bool()
	nextSnap := d.U64()
	tail := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if len(tail) > addrBatch {
		return fmt.Errorf("sim: checkpoint address buffer holds %d entries, max %d: %w",
			len(tail), addrBatch, ckpt.ErrBadCheckpoint)
	}
	if e.batchGen == nil && len(tail) > 0 {
		return fmt.Errorf("sim: checkpoint has a prefetch buffer but the workload has no batch path: %w",
			ckpt.ErrBadCheckpoint)
	}
	e.writes = writes
	e.stopped = stopped
	if nextSnap != 0 {
		e.nextSnap = nextSnap
	}
	if e.batchGen != nil {
		e.addrBuf = append(e.addrBuf[:0], tail...)
		e.addrPos = 0
	}

	if err := d.Section("device"); err != nil {
		return err
	}
	if err := e.dev.LoadState(d); err != nil {
		return err
	}

	if err := d.Section("ecc"); err != nil {
		return err
	}
	el, ok := e.be.ECC.(ckptLoader)
	if !ok {
		return fmt.Errorf("sim: ECC scheme %q does not support checkpointing", e.be.ECC.Name())
	}
	if err := el.LoadState(d); err != nil {
		return err
	}

	if err := d.Section("leveler"); err != nil {
		return err
	}
	if _, static := e.lv.(wear.Static); !static {
		ll, ok := e.lv.(ckptLoader)
		if !ok {
			return fmt.Errorf("sim: leveler %q does not support checkpointing", e.lv.Name())
		}
		if err := ll.LoadState(d); err != nil {
			return err
		}
	}

	if err := d.Section("os"); err != nil {
		return err
	}
	if err := e.os.LoadState(d); err != nil {
		return err
	}

	if err := d.Section("protector"); err != nil {
		return err
	}
	pl, ok := e.prot.(ckptLoader)
	if !ok {
		return fmt.Errorf("sim: protector %q does not support checkpointing", e.prot.Name())
	}
	if err := pl.LoadState(d); err != nil {
		return err
	}

	if e.remapCache != nil {
		if err := d.Section("cache"); err != nil {
			return err
		}
		if err := e.remapCache.LoadState(d); err != nil {
			return err
		}
	}

	if err := d.Section("observer"); err != nil {
		return err
	}
	if d.Bool() {
		if ol, ok := e.observer.(ckptLoader); ok {
			if err := ol.LoadState(d); err != nil {
				return err
			}
		} else {
			// The checkpoint carries observer state but this engine runs
			// unobserved; the metrics are knowingly dropped.
			d.SkipRest()
		}
	}
	return d.Err()
}

// encodeConfig writes the configuration fingerprint: every Config field
// that shapes construction, plus the workload's identity. decodeConfig
// compares field by field so a resume against a different configuration
// fails with a descriptive error instead of silently diverging.
func (e *Engine) encodeConfig(enc *ckpt.Encoder) {
	c := e.cfg
	enc.Begin("config")
	enc.U64(c.Blocks)
	enc.U64(c.BlocksPerPage)
	enc.I64(int64(c.CellsPerBlock))
	enc.F64(c.MeanEndurance)
	enc.F64(c.LifetimeCoV)
	enc.U64(c.Seed)
	enc.I64(int64(c.Leveler))
	enc.U64(c.GapWritePeriod)
	enc.U64(c.SRInnerRegions)
	enc.U64(c.SGRegions)
	enc.U64(c.WFRRegions)
	enc.U64(c.SWEpochWrites)
	custom := ""
	if c.CustomLeveler != nil {
		custom = c.CustomLeveler.Name()
	}
	enc.String(custom)
	enc.I64(int64(c.Protector))
	enc.F64(c.FreepReserveFraction)
	enc.Bool(false) // retired FREE-p pair-coding slot, always false
	enc.U64(c.LLSChunkPages)
	enc.U64(c.LLSSalvageGroups)
	enc.F64(c.LLSBackupFraction)
	enc.I64(int64(c.ECC))
	enc.I64(int64(c.CacheKB))
	enc.Bool(c.TrackContent)
	enc.Bool(c.DisableChainReduction)
	enc.Bool(c.ImmediateAcquisition)
	enc.I64(int64(c.RevPointerBytes))
	enc.String(e.gen.Name())
	enc.U64(e.gen.NumBlocks())
	enc.End()
}

// decodeConfig validates the fingerprint section against this engine's
// configuration.
func (e *Engine) decodeConfig(d *ckpt.Decoder) error {
	if err := d.Section("config"); err != nil {
		return err
	}
	c := e.cfg
	custom := ""
	if c.CustomLeveler != nil {
		custom = c.CustomLeveler.Name()
	}
	checks := []struct {
		field string
		match bool
	}{
		{"Blocks", d.U64() == c.Blocks},
		{"BlocksPerPage", d.U64() == c.BlocksPerPage},
		{"CellsPerBlock", d.I64() == int64(c.CellsPerBlock)},
		{"MeanEndurance", d.F64() == c.MeanEndurance},
		{"LifetimeCoV", d.F64() == c.LifetimeCoV},
		{"Seed", d.U64() == c.Seed},
		{"Leveler", d.I64() == int64(c.Leveler)},
		{"GapWritePeriod", d.U64() == c.GapWritePeriod},
		{"SRInnerRegions", d.U64() == c.SRInnerRegions},
		{"SGRegions", d.U64() == c.SGRegions},
		{"WFRRegions", d.U64() == c.WFRRegions},
		{"SWEpochWrites", d.U64() == c.SWEpochWrites},
		{"CustomLeveler", d.String() == custom},
		{"Protector", d.I64() == int64(c.Protector)},
		{"FreepReserveFraction", d.F64() == c.FreepReserveFraction},
		{"FreepZombiePairing", !d.Bool()}, // retired pair-coding slot
		{"LLSChunkPages", d.U64() == c.LLSChunkPages},
		{"LLSSalvageGroups", d.U64() == c.LLSSalvageGroups},
		{"LLSBackupFraction", d.F64() == c.LLSBackupFraction},
		{"ECC", d.I64() == int64(c.ECC)},
		{"CacheKB", d.I64() == int64(c.CacheKB)},
		{"TrackContent", d.Bool() == c.TrackContent},
		{"DisableChainReduction", d.Bool() == c.DisableChainReduction},
		{"ImmediateAcquisition", d.Bool() == c.ImmediateAcquisition},
		{"RevPointerBytes", d.I64() == int64(c.RevPointerBytes)},
		{"workload", d.String() == e.gen.Name()},
		{"workload blocks", d.U64() == e.gen.NumBlocks()},
	}
	if err := d.Err(); err != nil {
		return err
	}
	for _, chk := range checks {
		if !chk.match {
			return fmt.Errorf("sim: checkpoint was taken under a different configuration (%s differs): %w",
				chk.field, ErrConfigMismatch)
		}
	}
	return nil
}
