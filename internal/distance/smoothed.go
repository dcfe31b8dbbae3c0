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
	// tilt[j] is weight column j's sum c_j = Σ_i w_ij, which tiltBound
	// reads; nil when some nonzero weight is below tiltTiny, and then
	// the measure has no tilted bound.
	tilt []float64
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
	tilt := make([]float64, n)
	tiny := false
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
			tilt[j] += c.w[i]
			tiny = tiny || c.w[i] != 0 && c.w[i] < tiltTiny
		}
		cols[j] = c
	}
	if tiny {
		tilt = nil
	}
	return &SmoothedJS{cols: cols, tilt: tilt, id: "smoothedJS(" + k.Name() + ")"}
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

// distanceOrBound is Distance, or an upper bound on it when that is at
// most floor; see Bounded. It tries the cheaper bound first: tiltBound,
// which smooths neither side, then jsBound of the smoothed pair. A
// floor of -Inf skips both bounds.
//
//detlint:hotpath
func (s *SmoothedJS) distanceOrBound(p, q prob.Dist, floor float64) float64 {
	bounded := floor > math.Inf(-1)
	if bounded {
		if t := s.tiltBound(p, q); t <= floor {
			return t
		}
	}
	n := len(s.cols)
	var stack [2 * stackDomain]float64 // zeroed, as smoothInto needs
	buf := stack[:]
	if n > stackDomain {
		buf = make([]float64, 2*n)
	}
	ps, qs := buf[:n:n], buf[n:2*n:2*n]
	s.smoothInto(ps, p)
	s.smoothInto(qs, q)
	if bounded {
		if u := jsBound(ps, qs); u <= floor {
			return u
		}
	}
	return js(ps, qs)
}

// tiltTiny is the least nonzero weight, tilted mass α or β, and nonzero
// tilted component for which tiltBound answers, and 1/tiltTiny the
// largest α or β. With all of them in range, every nonzero product
// p_j·w_ij = α·p′_j·w_ij/c_j is at least 2⁻⁷⁶⁸/m and every nonzero
// smoothed component at least 2⁻⁵¹²/m (c_j ≤ m), far above the
// subnormals for any domain size, and no sum overflows. So every
// rounding in the smoothing and in js is relative, no midpoint rounds
// to zero, and the computed js stays within O(m·2⁻⁵³) of the exact JS
// that the data-processing argument bounds (DESIGN.md "Deciding by
// bound"). The guard has not fired on the engine's priors and
// posteriors (TestTiltBoundSoundOnReleases).
const tiltTiny = 0x1p-256

// tiltBound returns T + boundSlack, a log-free upper bound on the js of
// the smoothed pair that smooths neither side. Smoothing p is the
// column-stochastic channel K_ij = w_ij/c_j applied to the tilted
// distribution p′_j = c_j·p_j/α, α = Σ_j c_j·p_j, so data processing
// gives JS(p̂, q̂) ≤ JS(p′, q′), and Topsøe's bound on the tilted pair
// gives T = ½ Σ_j (p′_j−q′_j)²/(p′_j+q′_j). It takes O(m) work and no
// logarithm. It is +Inf when the measure has no column sums, when α or
// β is outside [tiltTiny, 1/tiltTiny], or when a nonzero tilted
// component is below tiltTiny.
//
//detlint:hotpath
func (s *SmoothedJS) tiltBound(p, q prob.Dist) float64 {
	c := s.tilt
	if c == nil {
		return math.Inf(1)
	}
	p, q = p[:len(c)], q[:len(c)]
	a, b := 0.0, 0.0
	for j, cj := range c {
		a += float64(cj * p[j])
		b += float64(cj * q[j])
	}
	if !(a >= tiltTiny && a <= 1/tiltTiny && b >= tiltTiny && b <= 1/tiltTiny) {
		return math.Inf(1)
	}
	ia, ib := 1/a, 1/b
	u := 0.0
	for j, cj := range c {
		pj, qj := p[j], q[j]
		if pj == 0 && qj == 0 {
			continue
		}
		x := float64(float64(cj*pj) * ia)
		y := float64(float64(cj*qj) * ib)
		if x != 0 && x < tiltTiny || y != 0 && y < tiltTiny {
			return math.Inf(1)
		}
		t := x + y
		if t == 0 { // c_j = 0: column j carries no weight
			continue
		}
		d := x - y
		u += d * d / t
	}
	return float64(0.5*u) + boundSlack
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
