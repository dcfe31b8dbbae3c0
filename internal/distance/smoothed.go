package distance

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/prob"
)

// SmoothedJS is the paper's distance measure (§IV-B.2): apply
// Nadaraya–Watson kernel smoothing across the sensitive-attribute
// domain — so that semantically close values share mass — and then take
// the Jensen–Shannon divergence of the smoothed distributions.
//
// Smoothing weights are precomputed at construction:
//
//	p̂_i = Σ_j p_j K(d_ij; b) / Σ_j K(d_ij; b)
//
// where d is the sensitive attribute's semantic distance matrix. The
// construction gives the measure all five desiderata: JS supplies
// identity, non-negativity, probability scaling, and zero-probability
// definability; the smoothing supplies semantic awareness.
type SmoothedJS struct {
	// cols[j] is weight column j cut to its nonzero span: a compact
	// kernel weights only nearby values, so most of each column is
	// exactly 0.
	cols []column
	id   string
}

// column is one weight column cut to the rows lo..lo+len(w)-1 that
// hold its nonzero entries.
type column struct {
	lo int
	w  []float64
}

// NewSmoothedJS builds the measure from the sensitive distance matrix,
// a kernel, and a bandwidth. The paper uses the Epanechnikov kernel
// with bandwidth at least 0.5 for the height-2 Occupation hierarchy so
// smoothing actually mixes sibling values.
func NewSmoothedJS(m [][]float64, k kernel.Func, bandwidth float64) *SmoothedJS {
	if k == nil {
		k = kernel.Epanechnikov{}
	}
	n := len(m)
	w := make([][]float64, n) // row-normalized kernel weights
	for i := 0; i < n; i++ {
		w[i] = make([]float64, n)
		rowSum := 0.0
		for j := 0; j < n; j++ {
			w[i][j] = k.Weight(m[i][j], bandwidth)
			rowSum += w[i][j]
		}
		if rowSum == 0 {
			// Degenerate bandwidth: keep the identity row so the measure
			// falls back to plain JS rather than dividing by zero.
			for j := range w[i] {
				w[i][j] = 0
			}
			w[i][i] = 1
		} else {
			for j := range w[i] {
				w[i][j] /= rowSum
			}
		}
	}
	cols := make([]column, n)
	for j := range cols {
		lo, hi := 0, n
		for lo < hi && w[lo][j] == 0 {
			lo++
		}
		for hi > lo && w[hi-1][j] == 0 {
			hi--
		}
		c := column{lo: lo, w: make([]float64, hi-lo)}
		for i := range c.w {
			c.w[i] = w[lo+i][j]
		}
		cols[j] = c
	}
	return &SmoothedJS{cols: cols, id: "smoothedJS(" + k.Name() + ")"}
}

// stackDomain is the largest sensitive domain whose smoothed pair
// Distance keeps on the stack (Adult's Occupation has 14 values); a
// larger domain takes one heap buffer per call.
const stackDomain = 32

// Distance implements Measure: JS divergence of the smoothed pair.
// Both sides are smoothed into call-local scratch and JS is taken
// there, in the float operation order of smoothing each side into its
// own distribution and calling JS on the two, so on domains up to
// stackDomain values the measure allocates nothing.
func (s *SmoothedJS) Distance(p, q prob.Dist) float64 {
	return s.distanceOrBound(p, q, math.Inf(-1))
}

// distanceOrBound is Distance, or jsBound of the smoothed pair when
// that is at most floor; see Bounded. A floor of -Inf skips the bound.
//
//detlint:hotpath
func (s *SmoothedJS) distanceOrBound(p, q prob.Dist, floor float64) float64 {
	n := len(s.cols)
	var stack [2 * stackDomain]float64 // zeroed, as smoothInto needs
	buf := stack[:]
	if n > stackDomain {
		buf = make([]float64, 2*n)
	}
	ps, qs := buf[:n:n], buf[n:2*n:2*n]
	s.smoothInto(ps, p)
	s.smoothInto(qs, q)
	if floor > math.Inf(-1) {
		if u := jsBound(ps, qs); u <= floor {
			return u
		}
	}
	return js(ps, qs)
}

// smoothInto writes the kernel-smoothed version of p into out, which
// must arrive all +0: p̂_i = Σ_j p_j·w_ij, renormalized, since
// row-normalized smoothing does not exactly preserve total mass when
// rows mix unevenly. It scatters each nonzero p_j, in ascending j, into
// the rows of column j's nonzero span, so every out[i] adds its nonzero
// products p_j·w_ij in ascending j starting from +0. Every product left
// out is exactly ±0, and adding ±0 to a sum of non-negative products
// leaves it unchanged, so out[i] is bit for bit the full sum over j.
//
//detlint:hotpath
func (s *SmoothedJS) smoothInto(out []float64, p prob.Dist) {
	p = p[:len(s.cols)]
	for j, c := range s.cols {
		pj := p[j]
		if pj == 0 {
			continue
		}
		o := out[c.lo:][:len(c.w)]
		for i, w := range c.w {
			o[i] += float64(pj * w)
		}
	}
	prob.Dist(out).Normalize()
}

// Name implements Measure.
func (s *SmoothedJS) Name() string { return s.id }
