package sim

import (
	"fmt"
	"math"
	"runtime"

	"wlreviver/internal/ckpt"
	"wlreviver/internal/obs"
	"wlreviver/internal/stats"
	"wlreviver/internal/trace"
)

// ShardedConfig sizes a sharded chip. The two knobs are deliberately
// independent:
//
//   - Grid is SEMANTIC: it selects the chip model. A grid-G chip is G
//     independent sub-chips — each with its own wear and failure
//     schedule, leveler, OS page table, protector and workload stream —
//     merged into one reporting surface. Grid is part of the simulation
//     state: it is checkpointed, and changing it changes results
//     (exactly as changing Blocks or Seed would).
//
//   - Pool is EXECUTION-ONLY: how many OS threads run the shards of one
//     batch. It is never persisted and cannot affect output — shards
//     share no mutable state, and the batch merge visits them in shard
//     order — so a run at Pool=1 is byte-identical to Pool=8, and a
//     checkpoint written at Pool=4 resumes at any other width
//     (TestShardedMatchesSerial, TestShardedCrossPoolResume).
type ShardedConfig struct {
	// Grid is the number of equal address-space shards; it must divide
	// Config.Blocks, and each shard must hold whole OS pages.
	Grid uint64
	// Pool is the maximum shards executed concurrently per batch;
	// 0 defaults to GOMAXPROCS.
	Pool int
	// RoundWrites is the chip's scheduling-round size in writes: every
	// round of that many chip writes is split equally over the live
	// shards (see ShardedEngine). Like Grid it is SEMANTIC — part of the
	// chip model and the checkpointed state — not a performance knob.
	// 0 defaults to Blocks/Grid (one write per shard block per round).
	RoundWrites uint64
}

// ShardedEngine drives one chip partitioned into Grid address-space
// shards, each an independent *Engine over Blocks/Grid blocks with a
// seed derived by trace.ShardSeed.
//
// Writes are scheduled in fixed-size ROUNDS of RoundWrites chip writes:
// at each round start the round's budget is split equally over the live
// shards (remainder to the lowest shard indexes); shards that reach end
// of life mid-round under-serve their quota, and the shortfall is
// re-split over the remaining live shards until the round completes.
// RunN may start or stop anywhere inside a round — outstanding quotas
// are consumed lowest-shard-first, so the per-shard write totals after N
// chip writes are a pure function of N and the simulation state, never
// of how the caller batches its RunN calls or how wide the execution
// pool is. The allocation arithmetic is sequential; the execution of the
// allocated quotas runs on the pool, since the shards share nothing.
//
// At each merge barrier the shards' buffered observer events replay into
// the chip observer in shard order, with shard-local device addresses,
// pages and leveler regions rebased into chip space. Chip-level
// snapshots are emitted at round boundaries — the first round end at or
// past each SnapshotEvery threshold — so the snapshot series is as
// deterministic as the write schedule.
//
// The sharded chip is a different (coarser-grained) model than the
// monolithic one — wear leveling and failure protection act within
// shards, not across them — so its results are comparable to, but not
// byte-identical with, a Grid=1 run. What IS byte-identical is the run
// across every Pool width and every RunN batching, which is the property
// that lets one device run saturate all cores.
type ShardedEngine struct {
	cfg    Config // chip-level configuration (Blocks = whole chip)
	grid   uint64
	pool   int
	round  uint64 // scheduling-round size in chip writes
	shards []*Engine
	recs   []*obs.Recorder // one per shard; nil without an observer

	// Round scheduling state (checkpointed): writes left in the current
	// round, and the current sub-round's per-shard quotas and progress. A
	// sub-round is one equal split of the round's remaining budget; death
	// shortfalls start a new sub-round over the surviving shards.
	roundRem uint64
	quota    []uint64
	served   []uint64

	// Per-wave scratch, sized once: this call's allocations and serviced
	// counts indexed by shard, plus the to-run index list.
	alloc []uint64
	ran   []uint64
	live  []int

	writes  uint64
	stopped bool

	observer  obs.Observer
	snapEvery uint64
	nextSnap  uint64

	// Rebase strides: each shard's device and page spaces are offset
	// by shard × stride when its events replay.
	devStride  uint64
	pageStride uint64
}

// NewShardedEngine builds the sharded chip. cfg describes the whole
// chip; newGen builds shard workload generators — it receives the shard
// index and the derived shard configuration (Blocks and Seed already
// shard-local) and must return a generator over shardCfg.Blocks blocks.
func NewShardedEngine(sc ShardedConfig, cfg Config, newGen func(shard uint64, shardCfg Config) (trace.Generator, error)) (*ShardedEngine, error) {
	if sc.Grid < 2 {
		return nil, fmt.Errorf("sim: shard grid must be at least 2, got %d (use NewEngine for a monolithic chip)", sc.Grid)
	}
	if cfg.Blocks%sc.Grid != 0 {
		return nil, fmt.Errorf("sim: %d blocks do not split into %d equal shards", cfg.Blocks, sc.Grid)
	}
	shardBlocks := cfg.Blocks / sc.Grid
	if cfg.BlocksPerPage == 0 || shardBlocks%cfg.BlocksPerPage != 0 {
		return nil, fmt.Errorf("sim: shard size %d blocks is not whole OS pages of %d blocks", shardBlocks, cfg.BlocksPerPage)
	}
	if cfg.CustomLeveler != nil {
		return nil, fmt.Errorf("sim: sharding cannot split a custom leveler; use NewEngine")
	}
	pool := sc.Pool
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	round := sc.RoundWrites
	if round == 0 {
		round = shardBlocks
	}

	se := &ShardedEngine{
		cfg:    cfg,
		grid:   sc.Grid,
		pool:   pool,
		round:  round,
		shards: make([]*Engine, sc.Grid),
		quota:  make([]uint64, sc.Grid),
		served: make([]uint64, sc.Grid),
		alloc:  make([]uint64, sc.Grid),
		ran:    make([]uint64, sc.Grid),
		live:   make([]int, 0, sc.Grid),
	}
	if cfg.Observer != nil {
		se.observer = cfg.Observer
		se.recs = make([]*obs.Recorder, sc.Grid)
		se.snapEvery = cfg.SnapshotEvery
		if se.snapEvery == 0 {
			se.snapEvery = cfg.Blocks
		}
		se.nextSnap = se.snapEvery
	}
	for shard := uint64(0); shard < sc.Grid; shard++ {
		shardCfg := cfg
		shardCfg.Blocks = shardBlocks
		shardCfg.Seed = trace.ShardSeed(cfg.Seed, shard)
		// Keep LLS's backup chunk the same fraction of (shard) capacity
		// the chip-level config asked for.
		if shardCfg.LLSChunkPages > 0 {
			shardCfg.LLSChunkPages = shardCfg.LLSChunkPages / sc.Grid
			if shardCfg.LLSChunkPages == 0 {
				shardCfg.LLSChunkPages = 1
			}
		}
		shardCfg.Observer = nil
		shardCfg.SnapshotEvery = 0
		if se.recs != nil {
			// The shard simulates under its own Recorder; snapshots are
			// suppressed (the chip emits aggregated ones at merges) by
			// parking the period past any reachable write count.
			se.recs[shard] = &obs.Recorder{}
			shardCfg.Observer = se.recs[shard]
			shardCfg.SnapshotEvery = math.MaxUint64
		}
		gen, err := newGen(shard, shardCfg)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d workload: %w", shard, err)
		}
		e, err := NewEngine(shardCfg, gen)
		if err != nil {
			return nil, fmt.Errorf("sim: shard %d: %w", shard, err)
		}
		se.shards[shard] = e
	}
	se.devStride = se.shards[0].dev.NumBlocks()
	se.pageStride = shardBlocks / cfg.BlocksPerPage
	return se, nil
}

// Grid returns the shard count (the semantic partition).
func (se *ShardedEngine) Grid() uint64 { return se.grid }

// PoolSize returns the execution pool width.
func (se *ShardedEngine) PoolSize() int { return se.pool }

// Shard exposes one shard's engine for inspection (tests, wear dumps).
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Config returns the chip-level configuration.
func (se *ShardedEngine) Config() Config { return se.cfg }

// Writes returns the software writes serviced across all shards.
func (se *ShardedEngine) Writes() uint64 { return se.writes }

// WritesPerBlock returns writes normalised by chip capacity.
func (se *ShardedEngine) WritesPerBlock() float64 {
	return float64(se.writes) / float64(se.cfg.Blocks)
}

// Stopped reports whether every shard reached end of life.
func (se *ShardedEngine) Stopped() bool { return se.stopped }

// SurvivalRate returns the chip-wide fraction of device blocks not
// declared dead.
func (se *ShardedEngine) SurvivalRate() float64 {
	var dead uint64
	for _, e := range se.shards {
		dead += e.dev.DeadBlocks()
	}
	return 1 - float64(dead)/float64(se.devStride*se.grid)
}

// DeadFraction returns the chip-wide fraction of device blocks dead.
func (se *ShardedEngine) DeadFraction() float64 {
	return 1 - se.SurvivalRate()
}

// UsableFraction returns the chip-wide software-usable capacity: the
// mean of the equal-sized shards' fractions.
func (se *ShardedEngine) UsableFraction() float64 {
	var sum float64
	for _, e := range se.shards {
		sum += e.UsableFraction()
	}
	return sum / float64(se.grid)
}

// RequestCounts sums the shards' (software requests, raw PCM accesses).
func (se *ShardedEngine) RequestCounts() (requests, accesses uint64) {
	for _, e := range se.shards {
		r, a := e.RequestCounts()
		requests += r
		accesses += a
	}
	return requests, accesses
}

// subActive reports whether a sub-round has outstanding quota on any
// still-live shard. Quota stuck on a dead shard does not keep the
// sub-round active — nothing can serve it, so it flows back into the
// round's remainder at the next split.
func (se *ShardedEngine) subActive() bool {
	for i, e := range se.shards {
		if !e.Stopped() && se.quota[i] > se.served[i] {
			return true
		}
	}
	return false
}

// startSubRound splits the round's remaining budget equally over the
// live shards (remainder to the lowest indexes). It reports false when
// no shard is live — the chip has reached end of life.
func (se *ShardedEngine) startSubRound() bool {
	if se.roundRem == 0 {
		se.roundRem = se.round
	}
	live := se.live[:0]
	for i := range se.shards {
		se.quota[i], se.served[i] = 0, 0
		if !se.shards[i].Stopped() {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return false
	}
	base := se.roundRem / uint64(len(live))
	extra := se.roundRem % uint64(len(live))
	for j, s := range live {
		se.quota[s] = base
		if uint64(j) < extra {
			se.quota[s]++
		}
	}
	return true
}

// RunN services up to n software writes across the shards. The write
// schedule is the round grid documented on ShardedEngine: quotas are a
// function of simulation state only, and a call boundary anywhere inside
// a round consumes the outstanding quotas lowest-shard-first — so the
// run is byte-identical across every RunN batching, execution pool width
// and checkpoint/restore cut.
//
// It returns the writes serviced; fewer than n means every shard reached
// end of life (the chip keeps absorbing the workload's writes on its
// surviving shards until none remain).
func (se *ShardedEngine) RunN(n uint64) uint64 {
	if se.stopped {
		return 0
	}
	var done uint64
	for done < n {
		if !se.subActive() && !se.startSubRound() {
			se.stopped = true
			se.emitDueSnapshots()
			break
		}
		// Allocate this call's budget over the sub-round's outstanding
		// quotas, lowest shard first — pure arithmetic, so the totals are
		// batching-invariant — then execute the allocations on the pool.
		m := n - done
		toRun := se.live[:0]
		for i := range se.shards {
			se.alloc[i] = 0
			if m == 0 || se.shards[i].Stopped() {
				continue
			}
			if rem := se.quota[i] - se.served[i]; rem > 0 {
				a := rem
				if a > m {
					a = m
				}
				se.alloc[i] = a
				m -= a
				toRun = append(toRun, i)
			}
		}
		fanOut(se.pool, len(toRun), func(j int) {
			s := toRun[j]
			se.ran[s] = se.shards[s].RunN(se.alloc[s])
		})
		var total uint64
		for _, s := range toRun {
			se.served[s] += se.ran[s]
			total += se.ran[s]
		}
		se.writes += total
		done += total
		se.roundRem -= total
		se.mergeEvents()
		if se.roundRem == 0 {
			se.emitDueSnapshots()
		}
		// A shard that under-served its allocation has stopped; its
		// outstanding quota re-splits over the survivors at the next
		// sub-round, so the loop always either finishes n or runs out of
		// shards.
	}
	return done
}

// mergeEvents is the barrier's deterministic publication step: replay
// each shard's buffered events into the chip observer in shard order,
// rebasing shard-local device addresses and pages into chip space.
// Within a sub-round the lowest-shard-first allocation order
// guarantees shard i's events all precede shard j's (i < j) no matter
// where the barriers fall, so the chip observer sees one fixed event
// sequence at every batching.
func (se *ShardedEngine) mergeEvents() {
	if se.observer == nil {
		return
	}
	for i, rec := range se.recs {
		if rec.Len() == 0 {
			continue
		}
		rec.Replay(se.observer, obs.Rebase{
			DA:   uint64(i) * se.devStride,
			Page: uint64(i) * se.pageStride,
		})
		rec.Reset()
	}
}

// emitDueSnapshots emits aggregated chip snapshots for every period
// threshold crossed since the last emission. Called only at round
// boundaries and at chip stop — both deterministic chip write counts —
// so the snapshot series is invariant under call batching.
func (se *ShardedEngine) emitDueSnapshots() {
	if se.observer == nil {
		return
	}
	for se.snapEvery != 0 && se.writes >= se.nextSnap {
		se.observer.Snapshot(se.snapshotSample())
		se.nextSnap += se.snapEvery
	}
}

// snapshotSample aggregates one chip-level obs.Snapshot from the shards:
// counters sum, capacity fractions average over the equal shards, the
// access ratio is recomputed from summed counts, and the wear CoV comes
// from merging the shards' streaming moments (stats.Welford.Merge).
func (se *ShardedEngine) snapshotSample() obs.Snapshot {
	s := obs.Snapshot{
		Writes:         se.writes,
		WritesPerBlock: se.WritesPerBlock(),
		SurvivalRate:   se.SurvivalRate(),
		UsableFraction: se.UsableFraction(),
	}
	var wear stats.Welford
	for _, e := range se.shards {
		s.DeadBlocks += e.dev.DeadBlocks()
		s.RetiredPages += e.os.RetiredPages()
		if e.rev != nil {
			s.LiveRemaps += e.rev.LinkedFailures()
			s.SparePAs += e.rev.AvailableSpares()
		}
		s.LevelerOps += levelerOps(e.lv)
		if e.remapCache != nil {
			s.CacheHits += e.remapCache.Hits()
			s.CacheMisses += e.remapCache.Misses()
		}
		wear.Merge(e.dev.WearMoments())
	}
	if req, acc := se.RequestCounts(); req > 0 {
		s.AccessRatio = float64(acc) / float64(req)
	}
	s.WearCoV = wear.CoV()
	return s
}

// Checkpoint serializes the sharded chip's complete mutable state, in
// the same self-describing CRC-framed format Engine.Checkpoint uses: a
// "sharded" header (grid, round schedule, cursor), then each shard's
// full section sequence in shard order, then the chip observer's state.
// The pool width is deliberately NOT stored — it is execution
// configuration, so any pool can resume the file.
func (se *ShardedEngine) Checkpoint() ([]byte, error) {
	enc := ckpt.NewEncoder()
	if err := se.encodeState(enc); err != nil {
		return nil, err
	}
	return enc.Finish(), nil
}

// RestoreCheckpoint restores an image produced by Checkpoint into a
// sharded engine freshly built from the identical configuration and
// grid. On error the engine must be discarded.
func (se *ShardedEngine) RestoreCheckpoint(data []byte) error {
	d, err := ckpt.NewDecoder(data)
	if err != nil {
		return err
	}
	if err := se.decodeState(d); err != nil {
		return err
	}
	return d.Close()
}

// encodeState implements the Machine checkpoint surface.
func (se *ShardedEngine) encodeState(enc *ckpt.Encoder) error {
	enc.Begin("sharded")
	enc.U64(se.grid)
	enc.U64(se.round)
	enc.U64(se.writes)
	enc.Bool(se.stopped)
	enc.U64(se.nextSnap)
	enc.U64(se.roundRem)
	enc.U64s(se.quota)
	enc.U64s(se.served)
	enc.End()
	for _, e := range se.shards {
		if err := e.encodeState(enc); err != nil {
			return err
		}
	}
	// Chip-level observer state (the shard "observer" sections above are
	// the Recorders, which are always empty at batch boundaries and
	// carry no state).
	enc.Begin("chipobserver")
	if osv, ok := se.observer.(ckptSaver); ok {
		enc.Bool(true)
		osv.SaveState(enc)
	} else {
		enc.Bool(false)
	}
	enc.End()
	return nil
}

// decodeState implements the Machine checkpoint surface.
func (se *ShardedEngine) decodeState(d *ckpt.Decoder) error {
	if err := d.Section("sharded"); err != nil {
		return err
	}
	grid := d.U64()
	round := d.U64()
	writes := d.U64()
	stopped := d.Bool()
	nextSnap := d.U64()
	roundRem := d.U64()
	quota := d.U64s()
	served := d.U64s()
	if err := d.Err(); err != nil {
		return err
	}
	if grid != se.grid {
		return fmt.Errorf("sim: checkpoint was taken under a different shard grid (%d, this chip has %d)", grid, se.grid)
	}
	if round != se.round {
		return fmt.Errorf("sim: checkpoint was taken under a different round size (%d, this chip has %d)", round, se.round)
	}
	if uint64(len(quota)) != se.grid || uint64(len(served)) != se.grid {
		return fmt.Errorf("sim: checkpoint quota vectors cover %d/%d shards, chip has %d", len(quota), len(served), se.grid)
	}
	se.writes = writes
	se.stopped = stopped
	if nextSnap != 0 {
		se.nextSnap = nextSnap
	}
	se.roundRem = roundRem
	copy(se.quota, quota)
	copy(se.served, served)
	var shardWrites uint64
	for i, e := range se.shards {
		if err := e.decodeState(d); err != nil {
			return fmt.Errorf("sim: shard %d: %w", i, err)
		}
		shardWrites += e.Writes()
	}
	if shardWrites != se.writes {
		return fmt.Errorf("sim: checkpoint shard writes sum to %d, chip cursor is %d", shardWrites, se.writes)
	}
	if err := d.Section("chipobserver"); err != nil {
		return err
	}
	if d.Bool() {
		if ol, ok := se.observer.(ckptLoader); ok {
			if err := ol.LoadState(d); err != nil {
				return err
			}
		} else {
			d.SkipRest()
		}
	}
	return d.Err()
}
