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
	weights [][]float64 // row-normalized kernel weights
	// rows[i] is weights[i] trimmed to its nonzero span, which starts
	// at column lo[i]: a compact kernel weights only nearby values, so
	// most of each row is exactly 0.
	rows [][]float64
	lo   []int
	// quad[i] reports that rows i..i+3 share row i's span.
	quad []bool
	id   string
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
	w := make([][]float64, n)
	rows, los := make([][]float64, n), make([]int, n)
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
		lo, hi := 0, n
		for lo < hi && w[i][lo] == 0 {
			lo++
		}
		for hi > lo && w[i][hi-1] == 0 {
			hi--
		}
		rows[i], los[i] = w[i][lo:hi], lo
	}
	quad := make([]bool, n)
	for i := 0; i+4 <= n; i++ {
		quad[i] = true
		for r := i + 1; r < i+4; r++ {
			quad[i] = quad[i] && los[r] == los[i] && len(rows[r]) == len(rows[i])
		}
	}
	return &SmoothedJS{weights: w, rows: rows, lo: los, quad: quad, id: "smoothedJS(" + k.Name() + ")"}
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
	n := len(s.weights)
	var stack [2 * stackDomain]float64
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

// smoothInto writes the kernel-smoothed version of p into out:
// p̂_i = Σ_j p_j·w_ij, renormalized, since row-normalized smoothing
// does not exactly preserve total mass when rows mix unevenly. Each
// sum adds p_j·w_ij in ascending j over the row's nonzero span only:
// every product left out is exactly +0, and adding +0 to a sum of
// non-negative products leaves it unchanged.
//
//detlint:hotpath
func (s *SmoothedJS) smoothInto(out []float64, p prob.Dist) {
	rows, n := s.rows, len(s.rows)
	for i := 0; i < n; {
		lo, w0 := s.lo[i], rows[i]
		ps := p[lo : lo+len(w0)]
		if s.quad[i] {
			// Four rows with one span: each sum still adds in ascending
			// j, but the four dependency chains overlap.
			w1, w2, w3 := rows[i+1][:len(ps)], rows[i+2][:len(ps)], rows[i+3][:len(ps)]
			a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
			for j, pj := range ps {
				a0 += pj * w0[j]
				a1 += pj * w1[j]
				a2 += pj * w2[j]
				a3 += pj * w3[j]
			}
			out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
			i += 4
			continue
		}
		acc := 0.0
		for j, pj := range ps {
			acc += pj * w0[j]
		}
		out[i] = acc
		i++
	}
	prob.Dist(out).Normalize()
}

// Name implements Measure.
func (s *SmoothedJS) Name() string { return s.id }
