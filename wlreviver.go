// Package wlreviver is a from-scratch reproduction of "WL-Reviver: A
// Framework for Reviving any Wear-Leveling Techniques in the Face of
// Failures on Phase Change Memory" (Fan, Jiang, Shu, Sun, Hu — DSN 2014).
//
// It provides a complete trace-driven PCM simulation stack — a cell-level
// endurance model, ECP/PAYG error correction, Start-Gap and Security
// Refresh wear leveling, an OS page-retirement model, the adapted FREE-p
// and LLS baselines — and the paper's contribution: the WL-Reviver
// framework, which keeps any wear-leveling scheme functioning after
// block failures by linking failed blocks to virtual shadow blocks
// (retired-page physical addresses) whose mapping the scheme itself
// keeps up to date.
//
// # Quick start
//
//	cfg := wlreviver.DefaultConfig()
//	workload, _ := wlreviver.NewWorkload(wlreviver.WorkloadSpec{
//		Kind: "mg", Blocks: cfg.Blocks, PageBlocks: cfg.BlocksPerPage, Seed: 1,
//	})
//	sys, _ := wlreviver.New(cfg, workload)
//	sys.RunN(10_000_000)
//	fmt.Printf("survival %.3f usable %.3f\n", sys.SurvivalRate(), sys.UsableFraction())
//
// The experiment presets (Table1, Fig5, CurveFigure for Figures 6–8 and
// the wolfram/softwear leveler ladders, Table2 and Attacks) regenerate
// every table and figure of the paper's evaluation; see EXPERIMENTS.md
// for the paper-vs-measured record.
package wlreviver

import (
	"fmt"

	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

// Config assembles one simulated PCM system; see sim.Config for the full
// field documentation.
type Config = sim.Config

// System is a running simulated PCM memory system.
type System = sim.Engine

// Workload is an endless stream of block write addresses.
type Workload = trace.Generator

// Leveler is the wear-leveling scheme interface; supply your own through
// Config.CustomLeveler to have the framework revive it (the paper's
// central claim — see examples/customleveler).
type Leveler = wear.Leveler

// Mover carries out a leveler's data migrations; the configured
// protection framework implements it.
type Mover = wear.Mover

// Kind selectors for the configurable components.
type (
	// LevelerKind selects the wear-leveling scheme.
	LevelerKind = sim.LevelerKind
	// ProtectorKind selects the failure-protection framework.
	ProtectorKind = sim.ProtectorKind
	// ECCKind selects the error-correction scheme.
	ECCKind = sim.ECCKind
)

// Component selectors (see the sim package for documentation).
const (
	LevelerNone             = sim.LevelerNone
	LevelerStartGap         = sim.LevelerStartGap
	LevelerSecurityRefresh  = sim.LevelerSecurityRefresh
	LevelerRegionedStartGap = sim.LevelerRegionedStartGap

	ProtectorNone      = sim.ProtectorNone
	ProtectorWLReviver = sim.ProtectorWLReviver
	ProtectorFREEp     = sim.ProtectorFREEp
	ProtectorLLS       = sim.ProtectorLLS

	ECCECP6 = sim.ECCECP6
	ECCECP1 = sim.ECCECP1
	ECCPAYG = sim.ECCPAYG
)

// DefaultConfig returns the scaled default system (see sim.DefaultConfig).
func DefaultConfig() Config { return sim.DefaultConfig() }

// New builds a system from cfg and a workload covering cfg.Blocks blocks.
func New(cfg Config, workload Workload) (*System, error) {
	return sim.NewEngine(cfg, workload)
}

// BenchmarkNames lists the Table I benchmark names.
func BenchmarkNames() []string { return trace.BenchmarkNames() }

// Scale groups the geometry knobs shared by the experiment presets.
type Scale = sim.Scale

// TinyScale is the unit-test scale (64 KiB chip).
func TinyScale() Scale { return sim.TinyScale() }

// BenchScale is the benchmark-harness scale (512 KiB chip).
func BenchScale() Scale { return sim.BenchScale() }

// PaperScale approaches the paper's setup (4 MiB chip, 1e4 endurance).
func PaperScale() Scale { return sim.PaperScale() }

// Paper1GBScale is the paper's full 1 GB chip (2^24 blocks, 1e8
// endurance) with a 64-way shard grid; runs must be budget-bounded via
// MaxWritesPerBlock (full lifetime is ~1e15 writes).
func Paper1GBScale() Scale { return sim.Paper1GBScale() }

// Experiment result types.
type (
	// Table1Result reproduces Table I.
	Table1Result = sim.Table1Result
	// Fig5Result reproduces Figure 5.
	Fig5Result = sim.Fig5Result
	// CurveResult is one workload's run of a curve figure (Figures 6–8,
	// the wolfram and softwear leveler ladders).
	CurveResult = sim.CurveResult
	// Table2Result reproduces Table II.
	Table2Result = sim.Table2Result
	// AttacksResult measures malicious wear-out resistance (§IV-B).
	AttacksResult = sim.AttacksResult
)

// CheckpointPlan coordinates per-job checkpointing, resume and crash
// injection across an experiment sweep (set it on Scale.Checkpoint). A
// run resumed from its checkpoints is byte-identical to an
// uninterrupted run; see EXPERIMENTS.md § Checkpoint format.
type CheckpointPlan = sim.CheckpointPlan

// Experiment is one registered evaluation preset (name, doc, runner).
type Experiment = sim.Experiment

// ResultPair bundles a per-workload figure's runs over the two reference
// workloads into one result.
type ResultPair = sim.ResultPair

// Experiments returns the ordered experiment registry; the CLI's -exp
// dispatch and the preset functions below are built over it.
func Experiments() []Experiment { return sim.Experiments() }

// ExperimentNames returns the registered experiment names in order.
func ExperimentNames() []string { return sim.ExperimentNames() }

// LookupExperiment returns the registered experiment with the given
// name, or an error listing the known names.
func LookupExperiment(name string) (Experiment, error) { return sim.LookupExperiment(name) }

// runRegistered dispatches a fixed-configuration preset through the
// registry, so the registry stays the one authority on what each named
// experiment runs.
func runRegistered[T any](name string, s Scale) (T, error) {
	var zero T
	e, err := LookupExperiment(name)
	if err != nil {
		return zero, err
	}
	res, err := e.Run(s)
	if err != nil {
		return zero, err
	}
	out, ok := res.(T)
	if !ok {
		return zero, fmt.Errorf("wlreviver: experiment %q returned %T", name, res)
	}
	return out, nil
}

// Table1 regenerates Table I (benchmark write CoVs).
func Table1(s Scale) (*Table1Result, error) { return runRegistered[*Table1Result]("table1", s) }

// Fig5 regenerates Figure 5 (lifetime to 30% capacity loss, ±WLR).
func Fig5(s Scale) (*Fig5Result, error) { return runRegistered[*Fig5Result]("fig5", s) }

// CurveFigure regenerates a curve figure — "fig6" (capacity-survival
// curves), "fig7" (WLR vs FREE-p reservations), "fig8" (WLR vs LLS
// usable space), or the "wolfram"/"softwear" leveler ladders — for one
// benchmark. The registry's entries of the same names fix the paper's
// reference workloads; this parameterised form accepts any Table I
// benchmark name.
func CurveFigure(s Scale, name, workload string) (*CurveResult, error) {
	return sim.CurveFigure(s, name, workload)
}

// Table2 regenerates Table II (access time and usable space vs failure
// ratio, LLS vs WLR) for the given benchmark workloads.
func Table2(s Scale, workloads []string) (*Table2Result, error) { return sim.Table2(s, workloads) }

// Attacks measures hammering and birthday-paradox attack costs, ±WLR.
func Attacks(s Scale) (*AttacksResult, error) { return runRegistered[*AttacksResult]("attacks", s) }
