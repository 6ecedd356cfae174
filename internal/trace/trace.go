// Package trace generates and replays the write workloads driving the
// simulator.
//
// The paper's evaluation replays Pin-collected write traces of eight
// PARSEC/NPB/SPLASH-2 benchmarks, characterised in its Table I solely by
// their per-block write-count CoV (coefficient of variation). Those
// traces are not available here, so this package substitutes synthetic
// generators calibrated to the same CoVs (see DESIGN.md): each block gets
// a stationary write weight drawn from a lognormal field — correlated
// within OS pages, since applications write pages rather than isolated
// cache lines — and writes are sampled from the weights with Walker's
// alias method in O(1) per write.
//
// The package also provides uniform traffic, the malicious wear-out
// attacks the wear-leveling literature considers (address hammering and
// Seznec's birthday-paradox attack), and a binary trace-file format so
// workloads can be generated once and replayed.
package trace

import (
	"fmt"
	"math"
	"math/bits"

	"wlreviver/internal/rng"
)

// Generator produces an endless stream of virtual block write addresses.
// (The paper assumes each program runs repeatedly to produce the
// required wear; an endless stationary stream models that.)
type Generator interface {
	// Name identifies the workload in reports.
	Name() string
	// NumBlocks is the size of the virtual block address space written.
	NumBlocks() uint64
	// Next returns the next block address to write.
	Next() uint64
}

// BatchGenerator is a Generator with a bulk fast path. NextBatch(dst) must
// produce exactly the addresses len(dst) successive Next calls would —
// the same stream, amortizing the per-call interface dispatch — which the
// equivalence tests pin for every generator in this package.
type BatchGenerator interface {
	Generator
	// NextBatch fills dst with the next len(dst) block addresses.
	NextBatch(dst []uint64)
}

// Alias is Walker/Vose alias-method sampler over n weighted outcomes.
type Alias struct {
	cols []aliasColumn // ckpt:derived rebuilt from the weights the owner reconstructs
	src  *rng.Source
}

// aliasColumn is one column of the alias table: the probability of
// keeping the column's own outcome and the outcome taken otherwise. A
// sample reads both, so they share one 16-byte record (one cache line)
// instead of living in two parallel slices.
type aliasColumn struct {
	prob  float64
	alias uint64
}

// NewAlias builds a sampler for the given non-negative weights. At least
// one weight must be positive.
func NewAlias(weights []float64, src *rng.Source) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("trace: alias needs at least one weight")
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("trace: alias table too large (%d)", n)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("trace: weight %d is %v; must be finite and non-negative", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("trace: all weights are zero")
	}
	a := &Alias{cols: make([]aliasColumn, n), src: src}
	scaled := make([]float64, n)
	small := make([]uint32, 0, n)
	large := make([]uint32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, uint32(i))
		} else {
			large = append(large, uint32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.cols[s] = aliasColumn{prob: scaled[s], alias: uint64(l)}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.cols[i].prob = 1
	}
	for _, i := range small {
		a.cols[i].prob = 1 // numerical leftovers
	}
	return a, nil
}

// Sample draws one outcome index from a single 64-bit draw: the high bits
// of u·n select the column (Lemire multiply-shift, rejection elided — the
// bias is O(n/2^64)) and the low bits, reused as a fixed-point fraction,
// decide column vs alias. Half the RNG work of the classic two-draw
// formulation; the sampled stream differs from it, which Table I's CoV
// harness revalidates. Sample is the reference SampleBatch must match.
func (a *Alias) Sample() uint64 {
	hi, lo := bits.Mul64(a.src.Uint64(), uint64(len(a.cols)))
	if float64(lo>>11)*(1.0/(1<<53)) < a.cols[hi].prob {
		return hi
	}
	return a.cols[hi].alias
}

// SampleBatch fills dst with len(dst) successive Sample draws. The raw
// draws come from one rng.Fill, and each is then mapped in place; the
// column-or-alias choice is a select, not a branch, since which side a
// draw lands on is as random as the draw.
func (a *Alias) SampleBatch(dst []uint64) {
	a.src.Fill(dst)
	n := uint64(len(a.cols))
	cols := a.cols
	for i, u := range dst {
		hi, lo := bits.Mul64(u, n)
		c := cols[hi]
		v := c.alias
		if float64(lo>>11)*(1.0/(1<<53)) < c.prob {
			v = hi
		}
		dst[i] = v
	}
}

// WeightedConfig configures a CoV-calibrated stationary workload.
type WeightedConfig struct {
	// Label names the workload in reports.
	Label string
	// NumBlocks is the virtual block space size.
	NumBlocks uint64
	// PageBlocks groups blocks whose weights are correlated (an OS page,
	// 64 blocks by default). 1 makes every block independent.
	PageBlocks uint64
	// TargetCoV is the desired coefficient of variation of per-block
	// write counts (Table I's metric).
	TargetCoV float64
	// UniformMix is the fraction of writes drawn uniformly at random
	// (background traffic); 0 disables.
	UniformMix float64
	// Seed keys the weight field and the sampling stream.
	Seed uint64
}

// Weighted is a stationary weighted-random write stream.
type Weighted struct {
	cfg   WeightedConfig // ckpt:skip construction-time config, fingerprinted by the registry
	alias *Alias
	src   *rng.Source
}

// NewWeighted builds the workload. Per-block weights are
// w(block) = pageWeight(page) * jitter(block), with both factors
// lognormal; their σ are chosen so the combined weight CoV equals
// TargetCoV, with 80% of the log-variance carried at page granularity.
func NewWeighted(cfg WeightedConfig) (*Weighted, error) {
	if cfg.NumBlocks == 0 {
		return nil, fmt.Errorf("trace: NumBlocks must be positive")
	}
	if cfg.PageBlocks == 0 {
		cfg.PageBlocks = 64
	}
	if cfg.TargetCoV < 0 {
		return nil, fmt.Errorf("trace: negative TargetCoV")
	}
	if cfg.UniformMix < 0 || cfg.UniformMix > 1 {
		return nil, fmt.Errorf("trace: UniformMix must be in [0,1]")
	}
	src := rng.New(cfg.Seed ^ 0x7A5CE5)
	wsrc := src.Fork(1)
	logW := logWeights(cfg, wsrc)
	// The asymptotic lognormal CoV badly overstates what a finite sample
	// exhibits (the tail mass is too rare to be drawn), so calibrate
	// empirically: weights = exp(alpha*logW) with alpha chosen so the
	// sample CoV of the weights equals TargetCoV (see calibrateAlpha).
	// The chosen alpha is a pure function of (NumBlocks, PageBlocks,
	// Seed, TargetCoV) — the field is fully determined by the first
	// three — so it is memoized.
	key := calKey{numBlocks: cfg.NumBlocks, pageBlocks: cfg.PageBlocks, targetCoV: cfg.TargetCoV, seed: cfg.Seed}
	calMu.Lock()
	alpha, hit := calCache[key]
	calMu.Unlock()
	if !hit {
		alpha, _ = calibrateAlpha(logW, cfg.TargetCoV)
		calMu.Lock()
		calCache[key] = alpha
		calMu.Unlock()
	}
	weights := expWeights(logW, alpha)
	alias, err := NewAlias(weights, src.Fork(2))
	if err != nil {
		return nil, err
	}
	return &Weighted{cfg: cfg, alias: alias, src: src.Fork(3)}, nil
}

// Name implements Generator.
func (w *Weighted) Name() string {
	if w.cfg.Label != "" {
		return w.cfg.Label
	}
	return fmt.Sprintf("weighted-cov%.1f", w.cfg.TargetCoV)
}

// NumBlocks implements Generator.
func (w *Weighted) NumBlocks() uint64 { return w.cfg.NumBlocks }

// Next implements Generator.
func (w *Weighted) Next() uint64 {
	if w.cfg.UniformMix > 0 && w.src.Float64() < w.cfg.UniformMix {
		return w.src.Uint64n(w.cfg.NumBlocks)
	}
	return w.alias.Sample()
}

// NextBatch implements BatchGenerator. Without background traffic the
// whole batch is one alias-sampling loop; with a mix the per-write checks
// are preserved draw for draw.
func (w *Weighted) NextBatch(dst []uint64) {
	if w.cfg.UniformMix == 0 {
		w.alias.SampleBatch(dst)
		return
	}
	for i := range dst {
		dst[i] = w.Next()
	}
}

// Uniform writes every block with equal probability.
type Uniform struct {
	n   uint64 // ckpt:skip construction-time block count, fingerprinted by the registry
	src *rng.Source
}

// NewUniform builds a uniform workload over n blocks.
func NewUniform(n uint64, seed uint64) (*Uniform, error) {
	if n == 0 {
		return nil, fmt.Errorf("trace: NumBlocks must be positive")
	}
	return &Uniform{n: n, src: rng.New(seed)}, nil
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// NumBlocks implements Generator.
func (u *Uniform) NumBlocks() uint64 { return u.n }

// Next implements Generator.
func (u *Uniform) Next() uint64 { return u.src.Uint64n(u.n) }

// NextBatch implements BatchGenerator.
func (u *Uniform) NextBatch(dst []uint64) {
	for i := range dst {
		dst[i] = u.src.Uint64n(u.n)
	}
}

// MeasureCoV replays draws writes from g and returns the CoV of the
// resulting per-block write counts — the procedure behind Table I.
func MeasureCoV(g Generator, draws uint64) float64 {
	counts := make([]uint64, g.NumBlocks())
	if bg, ok := g.(BatchGenerator); ok {
		var buf [512]uint64
		for left := draws; left > 0; {
			chunk := uint64(len(buf))
			if left < chunk {
				chunk = left
			}
			bg.NextBatch(buf[:chunk])
			for _, a := range buf[:chunk] {
				counts[a]++
			}
			left -= chunk
		}
	} else {
		for i := uint64(0); i < draws; i++ {
			counts[g.Next()]++
		}
	}
	var mean, m2 float64
	n := float64(len(counts))
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= n
	for _, c := range counts {
		d := float64(c) - mean
		m2 += d * d
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(m2/n) / mean
}
