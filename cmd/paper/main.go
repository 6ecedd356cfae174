// Command paper regenerates the tables and figures of the WL-Reviver
// paper's evaluation (DSN 2014) at a configurable scale.
//
// Usage:
//
//	paper [-scale tiny|bench|paper|paper1gb] [-exp all|table1|fig5|fig6|fig7|fig8|table2|attacks]
//	      [-seed N] [-workers N] [-shards N] [-shard-grid N] [-budget F]
//	      [-cpuprofile f] [-memprofile f]
//	      [-csv dir] [-metrics f] [-progress] [-timing=false]
//	      [-checkpoint-every N] [-checkpoint-dir d] [-resume d] [-crash-after N]
//
// The experiment set is wlreviver.Experiments(); -exp selects one entry
// by name (or "all"). Output is the textual form of each table/figure;
// EXPERIMENTS.md records a reference run against the paper's reported
// results. Experiments fan their independent engines out over -workers
// goroutines (default: all CPUs); results are identical for any worker
// count. -metrics attaches a wlreviver.Metrics observer to every engine
// and writes the collected event counters and snapshot series as JSON
// (schema in EXPERIMENTS.md); -progress streams snapshot lines to stderr.
// Neither changes the simulated results or stdout.
//
// When the scale carries a shard grid (paper1gb does; -shard-grid sets
// one anywhere), each engine's chip is partitioned into that many
// independent sub-chips executed by a per-engine pool of -shards
// goroutines (default: all CPUs). The grid is semantic — it selects a
// coarser chip model, appears in the banner, and is part of checkpoint
// state — while -shards is pure execution width: results are
// byte-identical for every value, and checkpoints move freely between
// widths. -budget overrides the scale's write budget (simulated
// writes/block); paper1gb needs it, as a full-lifetime run at 1e8
// endurance is ~1e15 writes.
//
// -checkpoint-dir writes per-engine checkpoint files (every
// -checkpoint-every simulated writes, and at each job's completion);
// -resume restores them and continues, producing output byte-identical
// to an uninterrupted run (use -timing=false for byte-stable stdout).
// -crash-after injects a crash fault after N simulated writes across
// the sweep and exits with code 3 — the test hook behind the resume
// guarantee. See EXPERIMENTS.md § Checkpoint format.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"wlreviver"
	"wlreviver/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		if errors.Is(err, wlreviver.ErrCrashed) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run() error {
	scaleName := flag.String("scale", "bench", "experiment scale: tiny, bench, paper or paper1gb")
	exp := flag.String("exp", "all", "experiment: all, table1, fig5, fig6, fig7, fig8, table2 or attacks")
	seed := flag.Uint64("seed", 0, "override the scale's RNG seed (0 keeps the default)")
	workers := flag.Int("workers", runtime.NumCPU(), "engine fan-out per experiment; 1 runs serially")
	shards := flag.Int("shards", 0, "per-engine shard execution pool width (0: all CPUs); output-invariant")
	shardGrid := flag.Uint64("shard-grid", 0, "partition each chip into N shards (semantic; 0 keeps the scale's default)")
	budget := flag.Float64("budget", 0, "override the scale's write budget in simulated writes per block (0 keeps the default)")
	csvDir := flag.String("csv", "", "also write the curve figures as CSV files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	metricsPath := flag.String("metrics", "", "observe every engine and write event counters and snapshots as JSON to this file")
	progress := flag.Bool("progress", false, "stream per-engine snapshot lines to stderr while experiments run")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint each engine every N simulated writes (0: only at -checkpoint-dir job completion)")
	ckptDir := flag.String("checkpoint-dir", "", "write per-engine checkpoint files into this directory")
	resumeDir := flag.String("resume", "", "resume from the checkpoint files in this directory (implies -checkpoint-dir)")
	crashAfter := flag.Uint64("crash-after", 0, "test hook: inject a crash after N simulated writes across the sweep (exit code 3)")
	timing := flag.Bool("timing", true, "print per-experiment wall-clock lines (disable for byte-stable stdout)")
	flag.Parse()

	var scale wlreviver.Scale
	switch *scaleName {
	case "tiny":
		scale = wlreviver.TinyScale()
	case "bench":
		scale = wlreviver.BenchScale()
	case "paper":
		scale = wlreviver.PaperScale()
	case "paper1gb":
		scale = wlreviver.Paper1GBScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	scale.Workers = *workers
	if *shardGrid != 0 {
		scale.ShardGrid = *shardGrid
	}
	scale.Shards = *shards
	if *budget != 0 {
		scale.MaxWritesPerBlock = *budget
	}

	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			return fmt.Errorf("-resume %s conflicts with -checkpoint-dir %s", *resumeDir, *ckptDir)
		}
		*ckptDir = *resumeDir
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint-dir: %w", err)
		}
		scale.Checkpoint = &wlreviver.CheckpointPlan{
			Dir:    *ckptDir,
			Every:  *ckptEvery,
			Resume: *resumeDir != "",
		}
	} else if *ckptEvery != 0 || *crashAfter != 0 {
		return fmt.Errorf("-checkpoint-every and -crash-after need -checkpoint-dir or -resume")
	}
	if *crashAfter != 0 {
		scale.Checkpoint.ArmTotalCrash(*crashAfter)
	}

	var collector *metricsCollector
	if *metricsPath != "" || *progress {
		collector = &metricsCollector{
			byKey:    make(map[string]*wlreviver.Metrics),
			progress: *progress,
		}
		scale.Observe = collector.observe
		// ~64 snapshots per full-length run, paced in simulated writes so
		// the series is identical for any -workers value.
		scale.SnapshotEvery = uint64(scale.MaxWritesPerBlock*float64(scale.Blocks)) / 64
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// The banner mentions workers only when parallel, so the output is
	// byte-identical across -workers values apart from this header. The
	// shard grid appears because it is semantic (a different chip model);
	// -shards never does, because the pool width is output-invariant.
	parallelNote := ""
	if scale.Workers > 1 {
		parallelNote = fmt.Sprintf(" workers=%d", scale.Workers)
	}
	gridNote := ""
	if scale.ShardGrid >= 2 {
		gridNote = fmt.Sprintf(" shardgrid=%d", scale.ShardGrid)
	}
	fmt.Printf("# scale=%s blocks=%d page=%d blocks endurance=%.0f psi=%d seed=%d%s%s\n\n",
		*scaleName, scale.Blocks, scale.BlocksPerPage, scale.MeanEndurance,
		scale.GapWritePeriod, scale.Seed, gridNote, parallelNote)

	experiments := wlreviver.Experiments()
	if *exp != "all" {
		e, err := wlreviver.LookupExperiment(*exp)
		if err != nil {
			return err
		}
		experiments = []wlreviver.Experiment{e}
	}

	for _, e := range experiments {
		start := time.Now()
		res, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		elapsed := time.Since(start)
		fmt.Println(res)
		if *timing {
			fmt.Printf("(%s took %v)\n\n", e.Name, elapsed.Round(time.Millisecond))
		} else {
			fmt.Println()
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.Name, res); err != nil {
				return fmt.Errorf("%s: writing csv: %w", e.Name, err)
			}
		}
	}

	if *metricsPath != "" {
		if err := collector.write(*metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// curveSet is implemented by results that carry plottable curves.
type curveSet interface {
	CurveData() (workload string, curves []stats.Curve)
}

// writeCSV dumps any curves a result carries as <dir>/<exp>[-workload].csv.
func writeCSV(dir, exp string, res fmt.Stringer) error {
	var sets []curveSet
	switch r := res.(type) {
	case wlreviver.ResultPair:
		for _, half := range r.Halves() {
			if cs, ok := half.(curveSet); ok {
				sets = append(sets, cs)
			}
		}
	case curveSet:
		sets = append(sets, r)
	default:
		return nil // tabular results have no curves
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cs := range sets {
		workload, curves := cs.CurveData()
		name := exp
		if workload != "" {
			name += "-" + workload
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fmt.Fprint(w, "writes_per_block")
		maxX := 0.0
		for _, c := range curves {
			fmt.Fprintf(w, ",%s", strings.ReplaceAll(c.Name, ",", ";"))
			if n := len(c.Points); n > 0 && c.Points[n-1].X > maxX {
				maxX = c.Points[n-1].X
			}
		}
		fmt.Fprintln(w)
		// Curves sample on their own grids (a run ends at its floor), so
		// resample everything onto a common 256-point grid.
		const gridPoints = 256
		for i := 0; i <= gridPoints; i++ {
			x := maxX * float64(i) / gridPoints
			fmt.Fprintf(w, "%g", x)
			for _, c := range curves {
				fmt.Fprintf(w, ",%g", c.YAt(x))
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ---- engine observation (-metrics / -progress) ------------------------------

// metricsCollector hands one wlreviver.Metrics accumulator to each engine
// an experiment builds, keyed by the engine's role. The factory runs on
// worker goroutines, hence the mutex; each returned observer serves one
// engine, so the accumulators themselves are unshared.
type metricsCollector struct {
	mu       sync.Mutex
	byKey    map[string]*wlreviver.Metrics
	progress bool
}

// observe is the wlreviver.Scale.Observe factory.
func (c *metricsCollector) observe(key string) wlreviver.Observer {
	m := wlreviver.NewMetrics()
	c.mu.Lock()
	c.byKey[key] = m
	c.mu.Unlock()
	if c.progress {
		return progressObserver{Metrics: m, key: key}
	}
	return m
}

// write dumps every engine's metrics report as one JSON document keyed
// by engine role. Keys marshal sorted, so the file is deterministic.
func (c *metricsCollector) write(path string) error {
	c.mu.Lock()
	reports := make(map[string]wlreviver.MetricsReport, len(c.byKey))
	for key, m := range c.byKey {
		reports[key] = m.Report()
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// progressObserver forwards everything to its Metrics and additionally
// streams each snapshot to stderr, leaving stdout byte-identical.
type progressObserver struct {
	*wlreviver.Metrics
	key string
}

// Snapshot accumulates the sample and prints a progress line.
func (p progressObserver) Snapshot(s wlreviver.Snapshot) {
	p.Metrics.Snapshot(s)
	fmt.Fprintf(os.Stderr, "progress %s: writes/block=%.0f survival=%.3f usable=%.3f dead=%d remaps=%d\n",
		p.key, s.WritesPerBlock, s.SurvivalRate, s.UsableFraction, s.DeadBlocks, s.LiveRemaps)
}
