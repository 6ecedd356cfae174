package wlreviver

import (
	"errors"
	"strings"
	"testing"
)

// TestErrorTaxonomy pins the public sentinel set: each failure mode
// reached through the public API matches its exported sentinel via
// errors.Is, so callers can branch without string matching.
func TestErrorTaxonomy(t *testing.T) {
	check := func(name string, err, sentinel error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: expected an error", name)
			return
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: %v does not wrap the sentinel", name, err)
		}
	}

	_, err := NewWorkload(WorkloadSpec{Kind: "nosuch", Blocks: 64})
	check("unknown workload kind", err, ErrUnknownWorkload)

	w, err := NewWorkload(WorkloadSpec{Kind: WorkloadUniform, Blocks: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{}, w)
	check("zero config", err, ErrBadConfig)

	cfg := DefaultConfig()
	cfg.Blocks = 128 // workload covers 64
	cfg.BlocksPerPage = 8
	_, err = New(cfg, w)
	check("workload/config mismatch", err, ErrBadConfig)

	// Whole pages, but a page size that is not a power of two.
	w384, err := NewWorkload(WorkloadSpec{Kind: WorkloadUniform, Blocks: 384, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig()
	cfg.Blocks = 384
	cfg.BlocksPerPage = 24
	_, err = New(cfg, w384)
	check("page size not a power of two", err, ErrBadConfig)
	if err != nil && !strings.Contains(err.Error(), "power of two") {
		t.Errorf("page size not a power of two: %v does not name the rule", err)
	}

	_, err = LookupExperiment("nosuch")
	check("unknown experiment", err, ErrUnknownExperiment)

	_, err = LookupDeviceStack("nosuch")
	check("unknown device stack", err, ErrUnknownExperiment)

	_, err = CurveFigure(TinyScale(), "nosuch", "mg")
	check("unknown curve figure", err, ErrUnknownExperiment)

	cfg = DefaultConfig()
	cfg.Blocks = 64
	cfg.BlocksPerPage = 8
	sys, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	check("garbage checkpoint", sys.RestoreCheckpoint([]byte("not a checkpoint")), ErrBadCheckpoint)

	img, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	other, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint config mismatch", other.RestoreCheckpoint(img), ErrConfigMismatch)
}
