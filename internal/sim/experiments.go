package sim

import (
	"fmt"
	"strings"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/obs"
	"wlreviver/internal/stats"
	"wlreviver/internal/trace"
)

// Scale groups the geometry knobs every experiment shares, so the same
// experiment code runs at test, bench and paper scale. See DESIGN.md §1
// for why geometric scaling preserves the paper's result shapes.
type Scale struct {
	// Blocks is the software capacity in 64 B blocks.
	Blocks uint64
	// BlocksPerPage is the OS page size in blocks.
	BlocksPerPage uint64
	// MeanEndurance is the mean cell lifetime in writes.
	MeanEndurance float64
	// GapWritePeriod is ψ, the writes per wear-leveling operation.
	GapWritePeriod uint64
	// Seed drives all randomness.
	Seed uint64
	// MaxWritesPerBlock bounds each run (in writes per block of
	// capacity); runs also end at their survival/usable floors.
	MaxWritesPerBlock float64
	// Workers is the fan-out of the experiment runners: each experiment
	// enumerates its independent engine configurations as jobs and runs
	// them on this many goroutines. 0 and 1 both run serially. Results
	// are identical for every value — every engine owns its seed and
	// shares nothing (enforced by TestParallelMatchesSerial).
	Workers int
	// Observe, when non-nil, is invoked once per engine an experiment
	// builds, with a stable key naming the engine's role (e.g.
	// "fig6/ocean/ECP6-SG-WLR"); the returned observer (which may be nil)
	// is attached to that engine. The factory runs on worker goroutines
	// and must be safe for concurrent calls, but each returned observer
	// serves exactly one engine, so the observers themselves need no
	// locking. Observation never changes experiment results (enforced by
	// TestObserverDoesNotPerturb).
	Observe func(key string) obs.Observer
	// SnapshotEvery is the per-engine snapshot period in simulated writes
	// (0: one snapshot per Blocks writes). Only meaningful with Observe.
	SnapshotEvery uint64
	// Checkpoint, when non-nil, coordinates per-job checkpointing, resume
	// and crash injection across the sweep (see CheckpointPlan). A run
	// resumed from any checkpoint is byte-identical to an uninterrupted
	// run; with Checkpoint nil the runners take no extra branches.
	Checkpoint *CheckpointPlan

	// ShardGrid, when >= 2, partitions every engine's address space into
	// that many independent shards executed by a per-engine pool
	// (ShardedEngine). The grid is SEMANTIC — it selects a coarser chip
	// model and is part of the checkpointed state — while Shards below
	// only sets execution width. 0 and 1 build the monolithic Engine.
	ShardGrid uint64
	// Shards is the per-engine shard execution pool width (0: GOMAXPROCS).
	// Results are byte-identical for every value (enforced by
	// TestShardedMatchesSerial); it is never persisted, so checkpoints
	// move freely between widths.
	Shards int
	// BatchWrites is the write-batch size between stop-condition checks,
	// curve samples and shard merge barriers (0: a small default suited to
	// test scales). Paper-scale runs want millions per batch so the shard
	// pool amortises its barrier.
	BatchWrites uint64
}

// TinyScale is for unit tests: a 64 KiB chip.
func TinyScale() Scale {
	return Scale{
		Blocks: 1 << 10, BlocksPerPage: 16, MeanEndurance: 600,
		GapWritePeriod: 20, Seed: 42, MaxWritesPerBlock: 1500,
	}
}

// BenchScale is for the benchmark harness: a 512 KiB chip.
func BenchScale() Scale {
	return Scale{
		Blocks: 1 << 13, BlocksPerPage: 32, MeanEndurance: 2500,
		GapWritePeriod: 50, Seed: 42, MaxWritesPerBlock: 6000,
	}
}

// PaperScale approaches the paper's setup as closely as is tractable on
// one core: a 4 MiB chip with 10^4 endurance, 4 KB pages, ψ=100.
func PaperScale() Scale {
	return Scale{
		Blocks: 1 << 16, BlocksPerPage: 64, MeanEndurance: 1e4,
		GapWritePeriod: 100, Seed: 42, MaxWritesPerBlock: 25000,
	}
}

// Paper1GBScale is the paper's actual setup (§IV-A): a 1 GB chip of 2^24
// 64 B blocks, 4 KB pages, 10^8 mean endurance, ψ=100 — reached by
// sharding the chip into 64 independent sub-chips so one engine's run
// saturates every core. Simulating the full device lifetime at this
// endurance is ~10^15 writes and out of reach on any machine; the
// default budget bounds a run to a fixed write volume (override
// MaxWritesPerBlock, or cmd/paper's -budget, to go further), which is
// what the paper-scale smoke job and the committed Performance numbers
// use.
func Paper1GBScale() Scale {
	return Scale{
		Blocks: 1 << 24, BlocksPerPage: 64, MeanEndurance: 1e8,
		GapWritePeriod: 100, Seed: 42, MaxWritesPerBlock: 4,
		ShardGrid: 64, BatchWrites: 1 << 21,
	}
}

// config derives an engine Config from the scale. LLS's chunk is sized
// at 1/16 of capacity, the paper's 64 MB : 1 GB proportion.
func (s Scale) config() Config {
	cfg := DefaultConfig()
	cfg.Blocks = s.Blocks
	cfg.BlocksPerPage = s.BlocksPerPage
	cfg.MeanEndurance = s.MeanEndurance
	cfg.GapWritePeriod = s.GapWritePeriod
	cfg.Seed = s.Seed
	cfg.LLSChunkPages = s.Blocks / 16 / s.BlocksPerPage
	if cfg.LLSChunkPages == 0 {
		cfg.LLSChunkPages = 1
	}
	return cfg
}

// maxWrites returns the run budget in writes.
func (s Scale) maxWrites() uint64 {
	return uint64(s.MaxWritesPerBlock * float64(s.Blocks))
}

// batch returns the write-batch size between stop checks, samples and
// shard merges.
func (s Scale) batch() uint64 {
	if s.BatchWrites > 0 {
		return s.BatchWrites
	}
	return checkEvery
}

// newMachine builds the chip the scale asks for — the monolithic Engine,
// or a ShardedEngine over ShardGrid independent shards each running its
// own instance of the named benchmark workload — behind the common
// Machine surface every experiment drives.
func (s Scale) newMachine(cfg Config, workload string) (Machine, error) {
	if s.ShardGrid <= 1 {
		gen, err := trace.NewBenchmark(workload, cfg.Blocks, cfg.BlocksPerPage, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return NewEngine(cfg, gen)
	}
	sc := ShardedConfig{Grid: s.ShardGrid, Pool: s.Shards}
	return NewShardedEngine(sc, cfg, func(shard uint64, shardCfg Config) (trace.Generator, error) {
		return trace.NewBenchmark(workload, shardCfg.Blocks, shardCfg.BlocksPerPage, shardCfg.Seed)
	})
}

// engineConfig derives the engine config for the engine identified by
// key, attaching an observer from the scale's factory when one is set.
func (s Scale) engineConfig(key string) Config {
	cfg := s.config()
	if s.Observe != nil {
		cfg.Observer = s.Observe(key)
		cfg.SnapshotEvery = s.SnapshotEvery
	}
	return cfg
}

// validateWorkload rejects unknown benchmark names before any job fans
// out, so a typo fails fast with the known names instead of erroring
// deep inside trace construction on a worker.
func validateWorkload(workload string) error {
	_, err := trace.LookupBenchmark(workload)
	return err
}

// benchmarkGen builds the synthetic stand-in for a Table I benchmark.
func (s Scale) benchmarkGen(name string) (*trace.Weighted, error) {
	return trace.NewBenchmark(name, s.Blocks, s.BlocksPerPage, s.Seed)
}

// ---- shared runners --------------------------------------------------------

// checkEvery is how many writes pass between stop-condition checks and
// curve samples; coarse enough to keep the hot loop tight.
const checkEvery = 1 << 10

// runCurve drives a machine until metric() falls to floor or the budget
// runs out, sampling (writes/block, metric) along the way. The inner
// batch is clamped to the remaining budget, so curves end exactly at
// maxWrites at every scale (not up to batchSize-1 writes past it). For a
// sharded machine each batch is also the shard merge barrier, so
// batchSize trades merge overhead against pool idle time.
//
// d (nil when checkpointing is off) restores the machine and curve from
// the job's checkpoint, checkpoints at batch ends — never mid-batch, so
// a resumed run replays the identical batch and sample sequence — and
// draws each batch from the sweep's crash budget, surfacing an exhausted
// budget as ErrCrashed.
func runCurve(e Machine, d *ckptDriver, name string, metric func(Machine) float64, floor float64, maxWrites, batchSize uint64) (stats.Curve, error) {
	curve := stats.Curve{Name: name}
	done := false
	err := d.restore(e, func(dec *ckpt.Decoder) error {
		var herr error
		done, herr = loadCurveHarness(dec, name, &curve)
		return herr
	})
	if err != nil {
		return stats.Curve{}, err
	}
	if done {
		return curve, nil
	}
	if len(curve.Points) == 0 {
		curve.Append(0, metric(e))
	}
	for e.Writes() < maxWrites {
		batch := maxWrites - e.Writes()
		if batch > batchSize {
			batch = batchSize
		}
		ran, err := d.run(e, batch)
		if err != nil {
			return stats.Curve{}, err
		}
		m := metric(e)
		curve.Append(e.WritesPerBlock(), m)
		stop := ran < batch || m <= floor
		final := stop || e.Writes() >= maxWrites
		if err := d.afterBatch(e, final, func(enc *ckpt.Encoder) {
			saveCurveHarness(enc, &curve, final)
		}); err != nil {
			return stats.Curve{}, err
		}
		if stop {
			break
		}
	}
	return curve, nil
}

// curveJob wraps one engine build + runCurve drive as a runner job. key
// is the job's stable qualified identity (observer and checkpoint key);
// name labels the resulting curve. build makes the machine from the
// scale's config with stack's components selected.
func curveJob(s Scale, key, name string, stack DeviceStack, build func(Config) (Machine, error), metric func(Machine) float64, floor float64) Job[stats.Curve] {
	return Job[stats.Curve]{
		Name: key,
		Run: func() (stats.Curve, uint64, error) {
			e, err := build(stack.Apply(s.engineConfig(key)))
			if err != nil {
				return stats.Curve{}, 0, err
			}
			c, err := runCurve(e, s.Checkpoint.driver(key), name, metric, floor, s.maxWrites(), s.batch())
			if err != nil {
				return stats.Curve{}, 0, err
			}
			return c, e.Writes(), nil
		},
	}
}

// plusMinusWLR are the ECP6 + Start-Gap stacks Figure 5 and the attacks
// compare: without, then with WL-Reviver.
var plusMinusWLR = [2]DeviceStack{
	{Name: "ECP6-SG", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorNone},
	{Name: "ECP6-SG-WLR", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
}

// survival reads the survival-rate metric.
func survival(e Machine) float64 { return e.SurvivalRate() }

// usable reads the software-usable-space metric.
func usable(e Machine) float64 { return e.UsableFraction() }

// ---- Table I ---------------------------------------------------------------

// Table1Row reports one benchmark's calibration.
type Table1Row struct {
	Name        string
	Suite       string
	Description string
	PaperCoV    float64
	MeasuredCoV float64
}

// Table1Result reproduces Table I: the benchmarks and their write CoVs,
// with the synthetic generators' measured CoVs alongside the paper's.
type Table1Result struct {
	Rows []Table1Row
	// SimWrites is the total workload draws the experiment serviced.
	SimWrites uint64
}

// TotalWrites reports the experiment's simulated write volume.
func (r *Table1Result) TotalWrites() uint64 { return r.SimWrites }

// Table1 measures each synthetic benchmark generator's write CoV, one
// job per benchmark.
func Table1(s Scale) (*Table1Result, error) {
	jobs := make([]Job[Table1Row], 0, len(trace.Benchmarks))
	for _, spec := range trace.Benchmarks {
		jobs = append(jobs, Job[Table1Row]{
			Name: "table1/" + spec.Name,
			Run: func() (Table1Row, uint64, error) {
				g, err := s.benchmarkGen(spec.Name)
				if err != nil {
					return Table1Row{}, 0, err
				}
				draws := 64 * s.Blocks
				measured := trace.MeasureCoV(g, draws)
				return Table1Row{
					Name: spec.Name, Suite: spec.Suite, Description: spec.Description,
					PaperCoV: spec.WriteCoV, MeasuredCoV: measured,
				}, draws, nil
			},
		})
	}
	rows, writes, err := CollectJobs(jobs, s.Workers)
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows, SimWrites: writes}, nil
}

// String formats the table.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — benchmark write CoVs (paper vs synthetic stand-in)\n")
	fmt.Fprintf(&b, "%-15s %-10s %10s %12s\n", "Name", "Suite", "Paper CoV", "Measured")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %-10s %10.2f %12.2f\n", row.Name, row.Suite, row.PaperCoV, row.MeasuredCoV)
	}
	return b.String()
}

// ---- Figure 5 ----------------------------------------------------------------

// Fig5Row is one benchmark's lifetime with and without WL-Reviver.
type Fig5Row struct {
	Benchmark string
	CoV       float64
	// Lifetimes are writes-per-block of capacity until 30% of blocks
	// failed (the paper's unavailability point).
	LifetimeNoWLR float64
	LifetimeWLR   float64
	// ImprovementPct is the WLR gain (paper reports 36%–325%).
	ImprovementPct float64
}

// Fig5Result reproduces Figure 5.
type Fig5Result struct {
	Rows []Fig5Row
	// SimWrites is the total simulated writes across all runs.
	SimWrites uint64
}

// TotalWrites reports the experiment's simulated write volume.
func (r *Fig5Result) TotalWrites() uint64 { return r.SimWrites }

// Fig5 measures each benchmark's lifetime under ECP6 + Start-Gap, with
// and without WL-Reviver — one job per (benchmark, arm), 16 independent
// engines. Lifetime is writes until 30% of the memory's capacity is lost
// (§IV-B: "an entire memory is considered unavailable when it loses 30%
// of its space"): dead blocks cost a page each without a revival
// framework, and one page per ~15 hidden failures with WL-Reviver, so
// the metric tracks the paper's block-failure lifetime while staying
// well-defined across both OS behaviours.
func Fig5(s Scale) (*Fig5Result, error) {
	var jobs []Job[stats.Curve]
	for _, spec := range trace.Benchmarks {
		build := func(cfg Config) (Machine, error) { return s.newMachine(cfg, spec.Name) }
		for _, st := range plusMinusWLR {
			key := fmt.Sprintf("fig5/%s/wlr=%v", spec.Name, st.Protector == ProtectorWLReviver)
			jobs = append(jobs, curveJob(s, key, spec.Name, st, build, survival, 0.70))
		}
	}
	curves, writes, err := CollectJobs(jobs, s.Workers)
	if err != nil {
		return nil, err
	}
	life := func(c stats.Curve) float64 { return c.Points[len(c.Points)-1].X }
	res := &Fig5Result{SimWrites: writes}
	for i, spec := range trace.Benchmarks {
		row := Fig5Row{
			Benchmark: spec.Name, CoV: spec.WriteCoV,
			LifetimeNoWLR: life(curves[2*i]), LifetimeWLR: life(curves[2*i+1]),
		}
		if row.LifetimeNoWLR > 0 {
			row.ImprovementPct = 100 * (row.LifetimeWLR - row.LifetimeNoWLR) / row.LifetimeNoWLR
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String formats the figure's data as a table.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — writes (per block) to fail 30%% of blocks, ECP6 + Start-Gap\n")
	fmt.Fprintf(&b, "%-15s %8s %14s %14s %9s\n", "Benchmark", "CoV", "ECP6-SG", "ECP6-SG-WLR", "Gain")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %8.2f %14.1f %14.1f %8.0f%%\n",
			row.Benchmark, row.CoV, row.LifetimeNoWLR, row.LifetimeWLR, row.ImprovementPct)
	}
	return b.String()
}

// ---- Figures 6–8 and the leveler ladders ------------------------------------

// curveFigure is one per-workload curve figure, a row of the table in
// registry.go: each arm is one engine stack, run until its software-
// usable space falls to floor and plotted as one curve named after the
// arm.
type curveFigure struct {
	// name is the registry name and the first part of every key.
	name string
	doc  string
	// title is the printed heading; its one %s takes the workload.
	title string
	floor float64
	// arms are the stacks in plotting order; Name is the curve name.
	arms []DeviceStack
}

// jobs builds the figure's jobs for one workload, one per arm. Curve
// names repeat across figures, so each observer/checkpoint key is
// qualified with the figure and the workload.
func (f curveFigure) jobs(s Scale, workload string) []Job[stats.Curve] {
	build := func(cfg Config) (Machine, error) { return s.newMachine(cfg, workload) }
	jobs := make([]Job[stats.Curve], len(f.arms))
	for i, arm := range f.arms {
		jobs[i] = curveJob(s, f.name+"/"+workload+"/"+arm.Name, arm.Name, arm, build, usable, f.floor)
	}
	return jobs
}

// result assembles one workload's result from its curves in arm order.
func (f curveFigure) result(workload string, curves []stats.Curve, writes uint64) *CurveResult {
	return &CurveResult{Workload: workload, Curves: curves, SimWrites: writes, title: fmt.Sprintf(f.title, workload)}
}

// CurveResult is one workload's run of a curve figure: one software-
// usable-space curve per arm.
type CurveResult struct {
	Workload string
	Curves   []stats.Curve
	// SimWrites is the total simulated writes across all runs.
	SimWrites uint64

	title string
}

// TotalWrites reports the experiment's simulated write volume.
func (r *CurveResult) TotalWrites() uint64 { return r.SimWrites }

// String formats the curves as a column table sampled at common points.
func (r *CurveResult) String() string { return formatCurves(r.title, r.Curves) }

// CurveData exposes the plottable series for CSV export.
func (r *CurveResult) CurveData() (string, []stats.Curve) { return r.Workload, r.Curves }

// CurveFigure runs the named curve figure (fig6, fig7, fig8, wolfram,
// softwear) for one workload, one job per arm.
func CurveFigure(s Scale, name, workload string) (*CurveResult, error) {
	f, err := lookupCurveFigure(name)
	if err != nil {
		return nil, err
	}
	if err := validateWorkload(workload); err != nil {
		return nil, err
	}
	curves, writes, err := CollectJobs(f.jobs(s, workload), s.Workers)
	if err != nil {
		return nil, err
	}
	return f.result(workload, curves, writes), nil
}

// ---- Table II ----------------------------------------------------------------

// Table2Cell is one (scheme, workload, failure-ratio) measurement.
type Table2Cell struct {
	FailureRatio float64
	Scheme       string
	Workload     string
	// AccessTime is raw PCM accesses per software request, measured over
	// the window since the previous failure-ratio threshold (paper
	// reports 1.001–1.020 with the 32 KB cache).
	AccessTime float64
	// UsableSpacePct is the software-usable capacity at the threshold.
	UsableSpacePct float64
	// Reached reports whether the run got to this failure ratio within
	// budget.
	Reached bool
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Cells []Table2Cell
	// SimWrites is the total simulated writes across all runs.
	SimWrites uint64
}

// TotalWrites reports the experiment's simulated write volume.
func (r *Table2Result) TotalWrites() uint64 { return r.SimWrites }

// table2Harness is the table2Run driver-state stored alongside the
// engine in each checkpoint: cells produced so far, the access-time
// deltas' baseline and the index of the ratio in progress.
type table2Harness struct {
	cells    []Table2Cell
	prevReq  uint64
	prevAcc  uint64
	ratioIdx uint64
	done     bool
}

func (h *table2Harness) save(enc *ckpt.Encoder) {
	enc.Bool(h.done)
	enc.U64(h.prevReq)
	enc.U64(h.prevAcc)
	enc.U64(h.ratioIdx)
	enc.U32(uint32(len(h.cells)))
	for _, c := range h.cells {
		enc.F64(c.FailureRatio)
		enc.String(c.Scheme)
		enc.String(c.Workload)
		enc.F64(c.AccessTime)
		enc.F64(c.UsableSpacePct)
		enc.Bool(c.Reached)
	}
}

func (h *table2Harness) load(dec *ckpt.Decoder) error {
	done := dec.Bool()
	prevReq := dec.U64()
	prevAcc := dec.U64()
	ratioIdx := dec.U64()
	n := dec.Count(3*8 + 2*4 + 1) // three floats, two string prefixes, a bool
	if err := dec.Err(); err != nil {
		return err
	}
	cells := make([]Table2Cell, n)
	for i := range cells {
		cells[i] = Table2Cell{
			FailureRatio: dec.F64(), Scheme: dec.String(), Workload: dec.String(),
			AccessTime: dec.F64(), UsableSpacePct: dec.F64(), Reached: dec.Bool(),
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	h.done, h.prevReq, h.prevAcc, h.ratioIdx, h.cells = done, prevReq, prevAcc, ratioIdx, cells
	return nil
}

// table2Run drives one (scheme, workload) engine through the failure-
// ratio ladder, one cell per threshold reached.
func table2Run(s Scale, scheme string, prot ProtectorKind, workload string) ([]Table2Cell, uint64, error) {
	ratios := []float64{0.10, 0.20, 0.30}
	key := "table2/" + scheme + "/" + workload
	cfg := s.engineConfig(key)
	cfg.Protector = prot
	cfg.CacheKB = 32
	e, err := s.newMachine(cfg, workload)
	if err != nil {
		return nil, 0, err
	}
	d := s.Checkpoint.driver(key)
	var h table2Harness
	if err := d.restore(e, h.load); err != nil {
		return nil, 0, err
	}
	if h.done {
		return h.cells, e.Writes(), nil
	}
	budget := s.maxWrites()
	for i := h.ratioIdx; i < uint64(len(ratios)); i++ {
		ratio := ratios[i]
		h.ratioIdx = i
		reached := true
		for e.DeadFraction() < ratio {
			batch := budget - e.Writes()
			if batch > s.batch() {
				batch = s.batch()
			}
			if batch == 0 {
				reached = false
				break
			}
			ran, err := d.run(e, batch)
			if err != nil {
				return nil, 0, err
			}
			if err := d.afterBatch(e, false, h.save); err != nil {
				return nil, 0, err
			}
			if ran == 0 {
				reached = false
				break
			}
		}
		req, acc := e.RequestCounts()
		cell := Table2Cell{
			FailureRatio: ratio, Scheme: scheme, Workload: workload,
			UsableSpacePct: 100 * e.UsableFraction(), Reached: reached,
		}
		if req > h.prevReq {
			cell.AccessTime = float64(acc-h.prevAcc) / float64(req-h.prevReq)
		}
		h.prevReq, h.prevAcc = req, acc
		h.cells = append(h.cells, cell)
		h.ratioIdx = i + 1
		if !reached {
			break
		}
	}
	h.done = true
	if err := d.afterBatch(e, true, h.save); err != nil {
		return nil, 0, err
	}
	return h.cells, e.Writes(), nil
}

// Table2 measures average access time (32 KB remap cache) and software-
// usable space at 10/20/30% failed blocks, for LLS and WL-Reviver on the
// given workloads — one job per (scheme, workload) engine.
func Table2(s Scale, workloads []string) (*Table2Result, error) {
	for _, w := range workloads {
		if err := validateWorkload(w); err != nil {
			return nil, err
		}
	}
	var jobs []Job[[]Table2Cell]
	for _, v := range []struct {
		name string
		prot ProtectorKind
	}{{"LLS", ProtectorLLS}, {"WL-Reviver", ProtectorWLReviver}} {
		for _, w := range workloads {
			jobs = append(jobs, Job[[]Table2Cell]{
				Name: fmt.Sprintf("table2/%s/%s", v.name, w),
				Run: func() ([]Table2Cell, uint64, error) {
					return table2Run(s, v.name, v.prot, w)
				},
			})
		}
	}
	cellGroups, writes, err := CollectJobs(jobs, s.Workers)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{SimWrites: writes}
	for _, cells := range cellGroups {
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

// String formats the table like the paper's Table II.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — avg access time (PCM accesses/request, 32KB cache) and software-usable space\n")
	fmt.Fprintf(&b, "%-8s %-12s %-14s %12s %14s\n", "Failure", "Scheme", "Workload", "AccessTime", "UsableSpace%")
	for _, c := range r.Cells {
		mark := ""
		if !c.Reached {
			mark = " (not reached)"
		}
		fmt.Fprintf(&b, "%6.0f%% %-12s %-14s %12.3f %13.1f%%%s\n",
			c.FailureRatio*100, c.Scheme, c.Workload, c.AccessTime, c.UsableSpacePct, mark)
	}
	return b.String()
}

// ---- shared formatting -------------------------------------------------------

// formatCurves renders a curve family as an aligned table over the union
// of sampled X positions (subsampled to at most 16 rows).
func formatCurves(title string, curves []stats.Curve) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	fmt.Fprintf(&b, "%14s", "writes/block")
	maxX := 0.0
	for _, c := range curves {
		fmt.Fprintf(&b, " %14s", c.Name)
		if n := len(c.Points); n > 0 && c.Points[n-1].X > maxX {
			maxX = c.Points[n-1].X
		}
	}
	fmt.Fprintln(&b)
	const rows = 16
	for i := 0; i <= rows; i++ {
		x := maxX * float64(i) / rows
		fmt.Fprintf(&b, "%14.1f", x)
		for _, c := range curves {
			fmt.Fprintf(&b, " %14.4f", c.YAt(x))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
