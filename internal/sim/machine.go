package sim

import "wlreviver/internal/ckpt"

// Machine is the runner-facing surface of one simulated chip: what the
// experiment drivers (runCurve, table2Run) and the checkpoint driver
// need, independent of whether the chip is the monolithic *Engine or a
// *ShardedEngine executing its address-space shards on a pool. Both
// satisfy the same determinism contract — results are a pure function of
// the configuration, never of worker or shard-pool width — so every
// experiment runs unchanged over either.
type Machine interface {
	// RunN services up to n software writes, returning the number
	// actually serviced; fewer than n means the memory reached end of
	// life.
	RunN(n uint64) uint64
	// Writes returns the software writes serviced so far.
	Writes() uint64
	// WritesPerBlock returns writes normalised by software capacity.
	WritesPerBlock() float64
	// SurvivalRate returns the fraction of device blocks not declared
	// dead (Figure 6's y-axis).
	SurvivalRate() float64
	// UsableFraction returns the software-usable capacity fraction
	// (Figures 7–8, Table II).
	UsableFraction() float64
	// DeadFraction returns the fraction of device blocks declared dead
	// (Table II's failure-ratio ladder).
	DeadFraction() float64
	// RequestCounts returns cumulative (software requests, raw PCM
	// accesses) where the protector tracks them (Table II's access-time
	// deltas).
	RequestCounts() (requests, accesses uint64)
	// Stopped reports whether the memory reached end of life.
	Stopped() bool

	// Checkpoint plumbing (in-package): the complete mutable state, in a
	// fixed section order, restorable into a machine freshly built from
	// the identical configuration.
	encodeState(*ckpt.Encoder) error
	decodeState(*ckpt.Decoder) error
}

var (
	_ Machine = (*Engine)(nil)
	_ Machine = (*ShardedEngine)(nil)
)
