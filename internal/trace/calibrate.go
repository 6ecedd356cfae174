package trace

import (
	"math"
	"sync"

	"wlreviver/internal/rng"
)

// calKey identifies one calibration problem: the log-weight field is a
// pure function of (numBlocks, pageBlocks, seed), and the calibrated
// alpha additionally of targetCoV.
type calKey struct {
	numBlocks  uint64
	pageBlocks uint64
	targetCoV  float64
	seed       uint64
}

// calCache memoizes the calibrated alpha per key, so experiment arms
// re-deriving the same workload (and sharded chips re-deriving the same
// shard streams) skip the calibration's passes over the field.
var (
	calMu    sync.Mutex
	calCache = map[calKey]float64{}
)

// logWeights draws the unit lognormal log-weight field, correlated
// within pages: 80% of the log-variance at page granularity.
func logWeights(cfg WeightedConfig, wsrc *rng.Source) []float64 {
	pageSigma := math.Sqrt(0.8)
	blockSigma := math.Sqrt(0.2)
	logW := make([]float64, cfg.NumBlocks)
	var pageW float64
	for b := uint64(0); b < cfg.NumBlocks; b++ {
		if b%cfg.PageBlocks == 0 {
			pageW = pageSigma * wsrc.NormFloat64()
		}
		logW[b] = pageW + blockSigma*wsrc.NormFloat64()
	}
	return logW
}

// calibrateAlpha returns the alpha >= 0 at which the sample CoV of
// exp(alpha*logW) crosses target; alpha = 0 yields uniform weights.
//
// The answer is defined by a bisection: double hi from 1 until
// covAt(hi) >= target (at most 60 times), then halve [lo, hi] 50 times,
// keeping covAt(mid) < target as the test, and return hi.
// That replay runs here probe for probe, but a probe is only computed
// when the certified bracket from certify cannot answer it, so the
// result is bit-identical to computing every probe (~55 passes over the
// field, each one math.Exp per block) while typically costing 20-27.
// passes reports how many covAt passes it ran.
func calibrateAlpha(logW []float64, target float64) (alpha float64, passes int) {
	if target == 0 {
		return 0, 0
	}
	f := newCovField(logW)
	br := f.certify(target)
	less := func(a float64) bool {
		if a <= br.low {
			return true
		}
		if a >= br.high && br.readsHigh(a, target) {
			return false
		}
		return f.covAt(a) < target
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60 && less(hi); i++ {
		lo = hi
		hi *= 2
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if less(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, f.passes
}

// expWeights materialises exp(alpha*(logW-max)), the weight field the
// calibration's final probe describes.
func expWeights(logW []float64, alpha float64) []float64 {
	maxLog := logW[0]
	for _, l := range logW {
		if l > maxLog {
			maxLog = l
		}
	}
	w := make([]float64, len(logW))
	for i, l := range logW {
		w[i] = math.Exp(alpha * (l - maxLog))
	}
	return w
}

// covField evaluates the sample CoV of exp(alpha*y) over the shifted
// field y = logW - max(logW). The shift keeps arbitrary alphas from
// overflowing (every y <= 0, and the maximum is exactly exp(0) = 1);
// CoV is scale-invariant, so it does not move the crossing.
type covField struct {
	logW    []float64
	maxLog  float64
	ymax    float64 // max |y|
	ties    int     // blocks with y == 0
	scratch []float64
	passes  int
}

func newCovField(logW []float64) *covField {
	maxLog, minLog := logW[0], logW[0]
	for _, l := range logW {
		maxLog = math.Max(maxLog, l)
		minLog = math.Min(minLog, l)
	}
	ties := 0
	for _, l := range logW {
		if l == maxLog {
			ties++
		}
	}
	return &covField{
		logW:    logW,
		maxLog:  maxLog,
		ymax:    maxLog - minLog,
		ties:    ties,
		scratch: make([]float64, len(logW)),
	}
}

// covAt is the sample CoV of exp(alpha*y) as the bisection defines it,
// fusing exponentiation with the mean's accumulation into one scratch
// pass. Its operation order is part of the contract: the calibrated
// alpha is whatever these exact roundings make of it (pinned by test).
func (f *covField) covAt(alpha float64) float64 {
	f.passes++
	n := float64(len(f.logW))
	var mean float64
	for i, l := range f.logW {
		x := math.Exp(alpha * (l - f.maxLog))
		f.scratch[i] = x
		mean += x
	}
	mean /= n
	var m2 float64
	for _, x := range f.scratch {
		d := x - mean
		m2 += d * d
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(m2/n) / mean
}

// logSlope returns d/dalpha log(1+CoV^2) at the alpha of the last covAt,
// from its scratch: with M(t) the mean of exp(t*y), 1+CoV^2 =
// M(2alpha)/M(alpha)^2, whose log has the derivative
// 2*(E_{x^2}[y] - E_x[y]) under x- and x^2-weighted means.
func (f *covField) logSlope() float64 {
	var s0, s1, s2, s3 float64
	for i, x := range f.scratch {
		xy := x * (f.logW[i] - f.maxLog)
		s0 += x
		s1 += xy
		s2 += x * x
		s3 += x * xy
	}
	return 2 * (s3/s2 - s1/s0)
}

// sigma returns the standard deviation of the log-weights.
func (f *covField) sigma() float64 {
	var mean, m2 float64
	for _, l := range f.logW {
		mean += l
	}
	mean /= float64(len(f.logW))
	for _, l := range f.logW {
		d := l - mean
		m2 += d * d
	}
	return math.Sqrt(m2 / float64(len(f.logW)))
}

// Exactness of the shortcut. Write c(alpha) for the exact CoV of the
// field exp(alpha*y) (y the rounded shifted log-weights) and r(alpha) for
// what covAt reads. Two facts make a bracket p < alpha* < q answer
// probes without computing them:
//
//   - c grows strictly in alpha for a non-constant field: with M(t) the
//     mean of exp(t*y) and K = log M, which is strictly convex,
//     log(1+c^2) = K(2alpha) - 2K(alpha) has derivative
//     2(K'(2alpha) - K'(alpha)) > 0. Its supremum is sqrt(n/k - 1) for
//     k blocks tied at the maximum (the limit as alpha grows; never
//     reached).
//   - |r - c| is rigorously bounded (covBound): each element carries a
//     relative error eta = (alpha*max|y| + 9)*u (the product's rounding
//     amplified by exp, plus math.Exp trusted to 4 ulp; u = 2^-53), an
//     absolute error for underflow, and the recursive sums add about
//     1.5*n*u relative (n*u from the mean, half of n*u from the second
//     moment under the square root).
//
// So once covAt at p reads low enough that even the worst exact c(p) it
// admits, perturbed by the worst error, stays below the target, every
// probe at or below p reads below it too; symmetrically above q. Probes
// strictly inside (p, q) are computed, which keeps the replay exact.
const unitRound = 0x1p-53

// covBound is covAt's error model for one field.
type covBound struct {
	ymax float64 // max |y|
	psi  float64 // relative error of the sums, division and square root
	gam  float64 // the centring mean's relative error, gamma(n)
	abs  float64 // underflow, relative to the mean (which is >= 1/n)
}

func gamma(k float64) float64 { return k * unitRound / (1 - k*unitRound) }

func newCovBound(n int, ymax float64) covBound {
	nf := float64(n)
	g := gamma(nf + 3)
	return covBound{
		ymax: ymax,
		// 4u covers the division, square root and quotient roundings;
		// 64u covers rounding in evaluating these bounds themselves.
		psi: 1.5*g + g*g + 68*unitRound,
		gam: gamma(nf),
		abs: nf * 0x1p-1000,
	}
}

// eta is the per-element relative error at alpha. Elements whose
// argument lies below -746 underflow and count under abs instead, so the
// product's contribution is capped there.
func (b covBound) eta(alpha float64) float64 {
	return (math.Min(alpha*b.ymax, 746)*(1+0x1p-20) + 9) * unitRound
}

// hi is the largest reading covAt can give when the exact CoV is c.
func (b covBound) hi(c, eta float64) float64 {
	return ((c*(1+eta)+eta+b.abs)/(1-eta-b.abs) + b.gam) * (1 + b.psi)
}

// lo is the smallest reading covAt can give when the exact CoV is c.
func (b covBound) lo(c, eta float64) float64 {
	return (c*(1-eta) - eta - b.abs) / (1 + eta + b.abs) * (1 - b.psi)
}

// cAbove bounds the exact CoV from above given a reading r (inverts lo).
func (b covBound) cAbove(r, eta float64) float64 {
	return (r*(1+eta+b.abs)/(1-b.psi) + eta + b.abs) / (1 - eta)
}

// cBelow bounds the exact CoV from below given a reading r (inverts hi).
func (b covBound) cBelow(r, eta float64) float64 {
	return ((r/(1+b.psi)-b.gam)*(1-eta-b.abs) - eta - b.abs) / (1 + eta)
}

// bracket is a certified answer set for the bisection's probes: every
// probe at or below low reads below the target; a probe at or above
// high reads at or above it when readsHigh confirms the bound there.
type bracket struct {
	low, high float64
	cHigh     float64 // lower bound on the exact CoV at high
	bound     covBound
}

// readsHigh reports whether a probe a >= high is certain to read at or
// above target: c(a) >= c(high) >= cHigh, and the reading is at least
// lo(c(a), eta(a)), which grows with c.
func (br *bracket) readsHigh(a, target float64) bool {
	return br.bound.lo(br.cHigh, br.bound.eta(a)) >= target
}

// certify finds the crossing with a safeguarded Newton solve and
// certifies a narrow bracket around it. On any failure it returns a
// bracket that certifies nothing, and the replay computes every probe.
func (f *covField) certify(target float64) bracket {
	none := bracket{low: -1, high: math.Inf(1)}
	if !(target > 0) {
		return none
	}
	b := newCovBound(len(f.logW), f.ymax)
	n := float64(len(f.logW))
	cSup := math.Sqrt((n-float64(f.ties))/float64(f.ties)) * (1 + 4*unitRound)
	if b.hi(cSup, b.eta(math.MaxFloat64)) < target {
		// Saturated (or constant) field: no alpha reaches the target.
		return bracket{low: math.Inf(1), high: math.Inf(1), bound: b}
	}
	sigma := f.sigma()
	if sigma == 0 {
		return none
	}

	// Newton on g(alpha) = sqrt(log(1+c^2)), which is nearly linear in
	// alpha (exactly alpha*sigma for an infinite lognormal sample, the
	// starting guess), safeguarded by the bracket [lo, hi] of probes
	// read so far.
	gt := math.Sqrt(math.Log1p(target * target))
	alpha := gt / sigma
	lo, hi := 0.0, math.Inf(1)
	var root, slope float64
	for i := 0; ; i++ {
		if i == 40 || alpha > 0x1p60 {
			return none
		}
		c := f.covAt(alpha)
		if c < target {
			lo = alpha
		} else {
			hi = alpha
		}
		g := math.Sqrt(math.Log1p(c * c))
		dlog := f.logSlope()
		next := alpha - (g-gt)*2*g/dlog
		if !(next > lo && next < hi) {
			if math.IsInf(hi, 1) {
				next = 2 * alpha
			} else {
				next = (lo + hi) / 2
			}
		}
		if math.Abs(next-alpha) <= 1e-9*alpha {
			root = next
			slope = dlog * (1 + c*c) / (2 * c) // dc/dalpha
			break
		}
		alpha = next
	}
	if !(slope > 0) {
		return none
	}

	// Probe one band-width to each side: wide enough that the readings
	// clear the target by more than the error bound, widened if a side
	// fails to certify.
	tol := b.hi(target, b.eta(root)) - target
	width := 4 * tol / slope
	for try := 0; try < 4; try++ {
		p, q := root-width, root+width
		if p <= 0 {
			return none
		}
		rp := f.covAt(p)
		ep := b.eta(p)
		lowOK := b.hi(b.cAbove(rp, ep), ep) < target
		rq := f.covAt(q)
		cq := b.cBelow(rq, b.eta(q))
		highOK := b.lo(cq, b.eta(q)) >= target
		if lowOK && highOK {
			return bracket{low: p, high: q, cHigh: cq, bound: b}
		}
		width *= 4
	}
	return none
}
