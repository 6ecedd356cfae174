package sim

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/stats"
)

// CheckpointPlan coordinates checkpoint, resume and crash injection
// across an experiment sweep. Each engine an experiment builds gets a
// per-job checkpoint file in Dir, named after its stable observer-style
// key (e.g. "fig6/ocean/ECP6-SG-WLR"), and checkpoints at exact
// simulated-write boundaries: the first batch end at or past each
// multiple of Every. Because batches are never split to take a
// checkpoint, a run resumed from any checkpoint replays the identical
// batch sequence and produces byte-identical results to an
// uninterrupted run, at every Workers value.
//
// The plan's sweep-wide budget (ArmTotalCrash) is the only crash
// injector: no engine carries a fault of its own. The same plan is
// shared by every worker goroutine; its only mutable state (the crash
// budget) is mutex-guarded.
type CheckpointPlan struct {
	// Dir is the checkpoint directory; it must exist.
	Dir string
	// Every is the checkpoint period in per-engine simulated writes.
	// 0 checkpoints each job only once, at completion.
	Every uint64
	// Resume restores each job from its file in Dir before running.
	// Jobs without a file start fresh; jobs checkpointed as complete
	// return their recorded results without re-running.
	Resume bool

	mu         sync.Mutex
	crashArmed bool
	crashLeft  uint64
}

// ArmTotalCrash arms a sweep-wide crash budget: after n more simulated
// writes across all engines combined, the sweep halts with ErrCrashed —
// the cmd/paper -crash-after test hook. The exact engine that trips the
// budget depends on worker scheduling; the resume guarantee holds
// regardless, which is the point of the fault.
func (p *CheckpointPlan) ArmTotalCrash(n uint64) {
	p.mu.Lock()
	p.crashArmed = true
	p.crashLeft = n
	p.mu.Unlock()
}

// takeBudget draws up to want writes from the crash budget. It returns
// how many writes the caller may service and whether the crash fires
// once they are done. With no budget armed it grants everything.
func (p *CheckpointPlan) takeBudget(want uint64) (allowed uint64, crashNow bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.crashArmed {
		return want, false
	}
	if want >= p.crashLeft {
		allowed = p.crashLeft
		p.crashLeft = 0
		return allowed, true
	}
	p.crashLeft -= want
	return want, false
}

// driver builds the per-job checkpoint driver for the given key, or nil
// when no plan is set — the nil driver restores, checkpoints and crashes
// nothing (its run is a plain RunN), so runners carry no checkpoint
// branches when checkpointing is off.
func (p *CheckpointPlan) driver(key string) *ckptDriver {
	if p == nil {
		return nil
	}
	return &ckptDriver{plan: p, key: key}
}

// ckptDriver threads one job's checkpoint state through its run loop.
// All methods are nil-receiver safe.
type ckptDriver struct {
	plan *CheckpointPlan
	key  string
	next uint64 // next checkpoint boundary in engine writes
}

// path returns the job's checkpoint file: the key with every character
// outside [a-zA-Z0-9._-] replaced by '_', plus the .ckpt suffix.
func (d *ckptDriver) path() string {
	sanitized := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, d.key)
	return filepath.Join(d.plan.Dir, sanitized+".ckpt")
}

// restore loads the job's checkpoint into e (and the harness section
// into loadHarness) when the plan resumes and the file exists, and arms
// the next checkpoint boundary either way. A missing file is a fresh
// start, not an error; a present-but-invalid file is an error — a
// corrupt checkpoint must never silently diverge.
func (d *ckptDriver) restore(e Machine, loadHarness func(*ckpt.Decoder) error) error {
	if d == nil {
		return nil
	}
	if d.plan.Resume {
		data, err := os.ReadFile(d.path())
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// fresh start
		case err != nil:
			return err
		default:
			dec, err := ckpt.NewDecoder(data)
			if err != nil {
				return fmt.Errorf("%s: %w", d.path(), err)
			}
			if err := e.decodeState(dec); err != nil {
				return fmt.Errorf("%s: %w", d.path(), err)
			}
			if err := dec.Section("harness"); err != nil {
				return fmt.Errorf("%s: %w", d.path(), err)
			}
			if err := loadHarness(dec); err != nil {
				return fmt.Errorf("%s: %w", d.path(), err)
			}
			if err := dec.Close(); err != nil {
				return fmt.Errorf("%s: %w", d.path(), err)
			}
		}
	}
	if d.plan.Every != 0 {
		d.next = (e.Writes()/d.plan.Every + 1) * d.plan.Every
	}
	return nil
}

// run services one batch of up to n writes on e. The batch is drawn
// from the sweep-wide crash budget first: when the budget runs out, run
// services only the prefix the budget allows and returns ErrCrashed, so
// the job is abandoned like the process kill the fault simulates.
func (d *ckptDriver) run(e Machine, n uint64) (uint64, error) {
	if d == nil {
		return e.RunN(n), nil
	}
	allowed, crashNow := d.plan.takeBudget(n)
	ran := e.RunN(allowed)
	if crashNow {
		return ran, ErrCrashed
	}
	return ran, nil
}

// afterBatch runs at every batch end. It checkpoints the engine plus
// the harness section when the run crossed the next boundary, or
// unconditionally when final (the job's completion record). Crashed
// batches never reach here — a crash abandons the job abruptly, like
// the process kill it simulates, so the file keeps the previous
// consistent image.
func (d *ckptDriver) afterBatch(e Machine, final bool, saveHarness func(*ckpt.Encoder)) error {
	if d == nil {
		return nil
	}
	if !final && (d.plan.Every == 0 || e.Writes() < d.next) {
		return nil
	}
	enc := ckpt.NewEncoder()
	if err := e.encodeState(enc); err != nil {
		return err
	}
	enc.Begin("harness")
	saveHarness(enc)
	enc.End()
	if err := writeFileAtomic(d.path(), enc.Finish()); err != nil {
		return err
	}
	if d.plan.Every != 0 {
		d.next = (e.Writes()/d.plan.Every + 1) * d.plan.Every
	}
	return nil
}

// writeFileAtomic writes data via a temp file and rename, so a crash
// mid-write leaves either the old checkpoint or the new one — never a
// torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// saveCurveHarness writes the curve-runner harness section payload: the
// done flag and the curve sampled so far.
func saveCurveHarness(enc *ckpt.Encoder, curve *stats.Curve, done bool) {
	enc.Bool(done)
	curve.SaveState(enc)
}

// loadCurveHarness reads the payload written by saveCurveHarness,
// checking the curve belongs to this job.
func loadCurveHarness(dec *ckpt.Decoder, name string, curve *stats.Curve) (done bool, err error) {
	done = dec.Bool()
	if err := curve.LoadState(dec); err != nil {
		return false, err
	}
	if curve.Name != name {
		return false, fmt.Errorf("sim: checkpoint holds curve %q, expected %q", curve.Name, name)
	}
	return done, nil
}
