// Package stats provides the statistical primitives used by the simulator
// and its evaluation harness: streaming moments (Welford), coefficient of
// variation, histograms, percentiles, and curve sampling for the
// survival-rate and usable-space series reported in the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance using Welford's
// algorithm. The zero value is an empty accumulator ready for use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 with <2 observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CoV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is 0.
func (w *Welford) CoV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.StdDev() / w.mean
}

// Merge combines another accumulator into w (parallel Welford merge).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	mean := w.mean + d*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// CoVOfCounts computes the coefficient of variation of a slice of counts.
// It is the metric the paper's Table I reports for per-block write counts.
func CoVOfCounts(counts []uint64) float64 {
	w := WelfordOfCounts(counts)
	return w.CoV()
}

// WelfordOfCounts accumulates a count slice into a Welford so callers can
// Merge moments across disjoint slices (e.g. the shards of a partitioned
// chip) instead of concatenating the counts.
func WelfordOfCounts(counts []uint64) Welford {
	var w Welford
	for _, c := range counts {
		w.Add(float64(c))
	}
	return w
}

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. values is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width bucket histogram over [Min, Max). Values
// outside the range are clamped into the first/last bucket.
type Histogram struct {
	Min, Max float64
	counts   []uint64
	total    uint64
}

// NewHistogram creates a histogram with n buckets spanning [min, max).
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	if max <= min {
		panic("stats: histogram max must exceed min")
	}
	return &Histogram{Min: min, Max: max, counts: make([]uint64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.counts)) * (x - h.Min) / (h.Max - h.Min))
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
}

// Counts returns a copy of the bucket counts.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// BucketCenter returns the midpoint of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.counts))
	return h.Min + (float64(i)+0.5)*w
}

// Quantile returns an approximate quantile (0..1) from the histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	target := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		cum += float64(c)
		if cum >= target {
			return h.BucketCenter(i)
		}
	}
	return h.BucketCenter(len(h.counts) - 1)
}

// Point is one (X, Y) sample of an experiment curve, e.g.
// (writes issued, survival rate).
type Point struct {
	X float64
	Y float64
}

// Curve is an ordered series of points as plotted in the paper's figures.
type Curve struct {
	Name   string
	Points []Point
}

// Append adds a point to the curve.
func (c *Curve) Append(x, y float64) {
	c.Points = append(c.Points, Point{X: x, Y: y})
}

// YAt returns the linearly interpolated Y value at x, clamping outside
// the sampled range. It requires points sorted by X (Append order).
func (c *Curve) YAt(x float64) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return math.NaN()
	}
	if x <= pts[0].X {
		return pts[0].Y
	}
	if x >= pts[len(pts)-1].X {
		return pts[len(pts)-1].Y
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x })
	a, b := pts[i-1], pts[i]
	if b.X == a.X {
		return a.Y
	}
	frac := (x - a.X) / (b.X - a.X)
	return a.Y*(1-frac) + b.Y*frac
}
