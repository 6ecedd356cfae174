package sim

import (
	"errors"
	"fmt"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/obs"
	"wlreviver/internal/wear"
)

// ErrCrashed is returned by checkpoint-aware runners when the
// CheckpointPlan's sweep-wide crash budget (ArmTotalCrash) halts the
// run. A crashed run's in-memory results are discarded — exactly like a
// process kill — and a subsequent run with Resume set converges to the
// uninterrupted result.
var ErrCrashed = errors.New("sim: run halted by injected crash fault")

// ckptState is a checkpoint section's payload: SaveState appends the
// state to the open section, and LoadState restores it into a value
// freshly built from the identical configuration.
type ckptState interface {
	SaveState(*ckpt.Encoder)
	LoadState(*ckpt.Decoder) error
}

// Checkpoint serializes the engine's complete mutable state — every
// layer plus the write cursor and workload stream position — into a
// self-describing, CRC-framed image (package ckpt). The configuration
// itself is not stored beyond a fingerprint: Restore rebuilds the system
// from the same Config and overlays this state, which keeps derived
// structures (randomizer tables, alias samplers, calibrated weights) out
// of the file.
func (e *Engine) Checkpoint() ([]byte, error) { return checkpoint(e) }

// RestoreCheckpoint restores an image produced by Checkpoint into an
// engine freshly built from the identical Config and workload. On any
// error (corruption, truncation, configuration mismatch) the engine's
// state is unspecified and the engine must be discarded — build a new
// one before retrying.
func (e *Engine) RestoreCheckpoint(data []byte) error { return restore(e, data) }

// checkpoint returns m's complete state as one image.
func checkpoint(m Machine) ([]byte, error) {
	enc := ckpt.NewEncoder()
	if err := m.encodeState(enc); err != nil {
		return nil, err
	}
	return enc.Finish(), nil
}

// restore overlays the image data onto m, which must read all of it.
func restore(m Machine, data []byte) error {
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		return err
	}
	if err := m.decodeState(d); err != nil {
		return err
	}
	return d.Close()
}

// writeSection writes st as the section name.
func writeSection(enc *ckpt.Encoder, name string, st ckptState) {
	enc.Begin(name)
	st.SaveState(enc)
	enc.End()
}

// readSection reads the section name into st.
func readSection(d *ckpt.Decoder, name string, st ckptState) error {
	if err := d.Section(name); err != nil {
		return err
	}
	return st.LoadState(d)
}

// engineSections lists the engine's checkpoint sections in image order;
// encodeState writes them and decodeState reads them back by walking
// this one list. state returns the value that carries a section, nil
// to omit it, or an error when the configured layer cannot checkpoint.
var engineSections = [...]struct {
	name  string
	state func(*Engine) (ckptState, error)
}{
	{"config", func(e *Engine) (ckptState, error) { return e.fingerprint(), nil }},
	{"workload", func(e *Engine) (ckptState, error) { return layerState(e.gen, "workload") }},
	{"engine", func(e *Engine) (ckptState, error) { return engineCursor{e}, nil }},
	{"device", func(e *Engine) (ckptState, error) { return e.dev, nil }},
	{"ecc", func(e *Engine) (ckptState, error) { return layerState(e.be.ECC, "ECC scheme") }},
	{"leveler", func(e *Engine) (ckptState, error) {
		if _, static := e.lv.(wear.Static); static {
			return noState{}, nil // stateless: its section is intentionally empty
		}
		return layerState(e.lv, "leveler")
	}},
	{"os", func(e *Engine) (ckptState, error) { return e.os, nil }},
	{"protector", func(e *Engine) (ckptState, error) { return layerState(e.prot, "protector") }},
	{"cache", func(e *Engine) (ckptState, error) {
		if e.remapCache == nil {
			return nil, nil
		}
		return e.remapCache, nil
	}},
	// Always present, so the section sequence does not depend on runtime
	// flags; byte-identical resumed metrics require resuming with the
	// same observer configuration.
	{"observer", func(e *Engine) (ckptState, error) { return observerState{e.observer}, nil }},
}

// encodeState writes the engine's sections, in engineSections order, to
// enc. Callers may append further sections before Finish (the
// experiment driver stores its harness state in the same file).
func (e *Engine) encodeState(enc *ckpt.Encoder) error {
	for _, s := range engineSections {
		st, err := s.state(e)
		if err != nil {
			return err
		}
		if st != nil {
			writeSection(enc, s.name, st)
		}
	}
	return nil
}

// decodeState reads the engine's sections from d, in engineSections
// order; the first, the configuration fingerprint, must match. On error
// the engine is partially restored and must be discarded by the caller.
func (e *Engine) decodeState(d *ckpt.Decoder) error {
	for _, s := range engineSections {
		st, err := s.state(e)
		if err != nil {
			return err
		}
		if st != nil {
			if err := readSection(d, s.name, st); err != nil {
				return err
			}
		}
	}
	return d.Err()
}

// layerState returns a configured layer as its checkpoint state, or an
// error naming it as what when it cannot checkpoint.
func layerState(l interface{ Name() string }, what string) (ckptState, error) {
	st, ok := l.(ckptState)
	if !ok {
		return nil, fmt.Errorf("sim: %s %q does not support checkpointing", what, l.Name())
	}
	return st, nil
}

// noState is an empty section's payload.
type noState struct{}

func (noState) SaveState(*ckpt.Encoder)         {}
func (noState) LoadState(d *ckpt.Decoder) error { return d.Err() }

// engineCursor is the "engine" section: the write cursor, the stop
// flag, the next snapshot threshold and the unconsumed tail of the
// address-prefetch buffer (the workload generator's state has already
// advanced past those addresses).
type engineCursor struct{ e *Engine }

func (c engineCursor) SaveState(enc *ckpt.Encoder) {
	e := c.e
	enc.U64(e.writes)
	enc.Bool(e.stopped)
	enc.U64(e.nextSnap)
	if e.batchGen != nil {
		enc.U64s(e.addrBuf[e.addrPos:])
	} else {
		enc.U64s(nil)
	}
}

func (c engineCursor) LoadState(d *ckpt.Decoder) error {
	e := c.e
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
	return nil
}

// observerState is an observer section: a presence flag, then the
// observer's own state when it checkpoints.
type observerState struct{ o obs.Observer }

func (s observerState) SaveState(enc *ckpt.Encoder) {
	st, ok := s.o.(ckptState)
	enc.Bool(ok)
	if ok {
		st.SaveState(enc)
	}
}

func (s observerState) LoadState(d *ckpt.Decoder) error {
	if !d.Bool() {
		return d.Err()
	}
	if st, ok := s.o.(ckptState); ok {
		return st.LoadState(d)
	}
	// The checkpoint carries observer state but this engine runs
	// unobserved; the metrics are knowingly dropped.
	d.SkipRest()
	return d.Err()
}

// printField is one configuration fingerprint entry: a name and a value
// of one of the wire types uint64, int64, float64, bool or string.
type printField struct {
	name  string
	value any
}

// fingerprint is the "config" section: every Config field that shapes
// construction, plus the workload's identity, in wire order. Observer
// and SnapshotEvery are left out (observation is passive). LoadState
// compares field by field so a resume against a different
// configuration fails with an error naming the field instead of
// silently diverging.
type fingerprint []printField

// fingerprint returns the engine's configuration fingerprint.
func (e *Engine) fingerprint() fingerprint {
	c := e.cfg
	custom := ""
	if c.CustomLeveler != nil {
		custom = c.CustomLeveler.Name()
	}
	return fingerprint{
		{"Blocks", c.Blocks},
		{"BlocksPerPage", c.BlocksPerPage},
		{"CellsPerBlock", int64(c.CellsPerBlock)},
		{"MeanEndurance", c.MeanEndurance},
		{"LifetimeCoV", c.LifetimeCoV},
		{"Seed", c.Seed},
		{"Leveler", int64(c.Leveler)},
		{"GapWritePeriod", c.GapWritePeriod},
		{"SRInnerRegions", c.SRInnerRegions},
		{"SGRegions", c.SGRegions},
		{"WFRRegions", c.WFRRegions},
		{"SWEpochWrites", c.SWEpochWrites},
		{"CustomLeveler", custom},
		{"Protector", int64(c.Protector)},
		{"FreepReserveFraction", c.FreepReserveFraction},
		{"FreepZombiePairing", false}, // retired FREE-p pair-coding slot, always false
		{"LLSChunkPages", c.LLSChunkPages},
		{"LLSSalvageGroups", c.LLSSalvageGroups},
		{"LLSBackupFraction", c.LLSBackupFraction},
		{"ECC", int64(c.ECC)},
		{"CacheKB", int64(c.CacheKB)},
		{"TrackContent", c.TrackContent},
		{"DisableChainReduction", c.DisableChainReduction},
		{"ImmediateAcquisition", c.ImmediateAcquisition},
		{"RevPointerBytes", int64(c.RevPointerBytes)},
		{"workload", e.gen.Name()},
		{"workload blocks", e.gen.NumBlocks()},
	}
}

func (f fingerprint) SaveState(enc *ckpt.Encoder) {
	for _, p := range f {
		switch v := p.value.(type) {
		case uint64:
			enc.U64(v)
		case int64:
			enc.I64(v)
		case float64:
			enc.F64(v)
		case bool:
			enc.Bool(v)
		case string:
			enc.String(v)
		}
	}
}

func (f fingerprint) LoadState(d *ckpt.Decoder) error {
	differs := ""
	for _, p := range f {
		var got any
		switch p.value.(type) {
		case uint64:
			got = d.U64()
		case int64:
			got = d.I64()
		case float64:
			got = d.F64()
		case bool:
			got = d.Bool()
		case string:
			got = d.String()
		}
		if got != p.value && differs == "" {
			differs = p.name
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if differs != "" {
		return fmt.Errorf("sim: checkpoint was taken under a different configuration (%s differs): %w",
			differs, ErrConfigMismatch)
	}
	return nil
}
