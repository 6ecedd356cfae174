package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wlreviver/internal/obs"
	"wlreviver/internal/trace"
)

// buildCkptEngine constructs a fresh metrics-observed engine over the
// shared tiny checkpoint-test geometry, with endurance raised so the
// runs here never hit end of life.
func buildCkptEngine(cfg Config) (*Engine, error) {
	cfg.Observer = obs.NewMetrics()
	return buildObservedEngine(cfg)
}

// buildObservedEngine is buildCkptEngine with the caller's observer.
func buildObservedEngine(cfg Config) (*Engine, error) {
	cfg.MeanEndurance = 1e6
	cfg.SnapshotEvery = 1000
	gen, err := trace.NewFromSpec(trace.Spec{
		Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return NewEngine(cfg, gen)
}

// cancelAt cancels a context from the first snapshot at or past a
// write count, i.e. from inside a running RunContext batch.
type cancelAt struct {
	obs.Metrics
	at     uint64
	cancel context.CancelFunc
}

func (c *cancelAt) Snapshot(s obs.Snapshot) {
	c.Metrics.Snapshot(s)
	if s.Writes >= c.at {
		c.cancel()
	}
}

// TestRunContextCancelAtBatchBoundary pins RunContext's determinism
// contract: cancellation is observed only at runCtxBatch boundaries, so
// the serviced count is always a full multiple of the batch size (or
// the whole request), and a cancelled-then-resumed run is byte-identical
// to an uninterrupted one.
func TestRunContextCancelAtBatchBoundary(t *testing.T) {
	build := func() *Engine {
		cfg := ckptTestConfig()
		eng, err := buildCkptEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	const total = 5 * runCtxBatch / 2 // 2.5 batches

	// Cancel from an observer snapshot partway into the second batch.
	ctx, cancel := context.WithCancel(context.Background())
	cfg := ckptTestConfig()
	cfg.Observer = &cancelAt{at: runCtxBatch + 17, cancel: cancel}
	interrupted, err := buildObservedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done, err := interrupted.RunContext(ctx, total)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if done != 2*runCtxBatch {
		t.Fatalf("cancelled run serviced %d writes, want batch-aligned %d", done, 2*runCtxBatch)
	}

	// Resume to the full total; the result must match a straight run.
	if d, err := interrupted.RunContext(context.Background(), total-done); err != nil || d != total-done {
		t.Fatalf("resume serviced %d, err %v", d, err)
	}
	straight := build()
	if d, err := straight.RunContext(context.Background(), total); err != nil || d != total {
		t.Fatalf("straight run serviced %d, err %v", d, err)
	}
	wantImg, err := straight.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	gotImg, err := interrupted.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Error("cancelled+resumed run diverges from uninterrupted run")
	}

	// An already-cancelled context services nothing.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if d, err := build().RunContext(dead, total); d != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled context serviced %d writes, err %v", d, err)
	}
}

// TestRunIsRunContext pins RunN as a thin wrapper: same writes, same
// image as RunContext with a background context.
func TestRunIsRunContext(t *testing.T) {
	cfg := ckptTestConfig()
	a, err := buildCkptEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCkptEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	if got := a.RunN(n); got != n {
		t.Fatalf("RunN serviced %d", got)
	}
	got, err := b.RunContext(context.Background(), n)
	if err != nil || got != n {
		t.Fatalf("RunContext serviced %d, err %v", got, err)
	}
	imgA, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgA, imgB) {
		t.Error("RunN and RunContext diverge")
	}
}
