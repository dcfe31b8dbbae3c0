package distance

import (
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
	id      string
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
			continue
		}
		for j := range w[i] {
			w[i][j] /= rowSum
		}
	}
	return &SmoothedJS{weights: w, id: "smoothedJS(" + k.Name() + ")"}
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
//
//detlint:hotpath
func (s *SmoothedJS) Distance(p, q prob.Dist) float64 {
	n := len(s.weights)
	var stack [2 * stackDomain]float64
	buf := stack[:]
	if n > stackDomain {
		buf = make([]float64, 2*n)
	}
	ps, qs := buf[:n:n], buf[n:2*n:2*n]
	s.smoothInto(ps, p)
	s.smoothInto(qs, q)
	return js(ps, qs)
}

// smoothInto writes the kernel-smoothed version of p into out:
// p̂_i = Σ_j p_j·w_ij, renormalized, since row-normalized smoothing
// does not exactly preserve total mass when rows mix unevenly.
//
//detlint:hotpath
func (s *SmoothedJS) smoothInto(out []float64, p prob.Dist) {
	w, n := s.weights, len(s.weights)
	p = p[:n]
	i := 0
	// Four rows at a time: each sum still adds p_j·w_ij in ascending j,
	// but the four dependency chains overlap.
	for ; i+4 <= n; i += 4 {
		w0, w1, w2, w3 := w[i][:n], w[i+1][:n], w[i+2][:n], w[i+3][:n]
		a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
		for j, pj := range p {
			a0 += pj * w0[j]
			a1 += pj * w1[j]
			a2 += pj * w2[j]
			a3 += pj * w3[j]
		}
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
	for ; i < n; i++ {
		acc := 0.0
		for j, pj := range p {
			acc += pj * w[i][j]
		}
		out[i] = acc
	}
	prob.Dist(out).Normalize()
}

// Name implements Measure.
func (s *SmoothedJS) Name() string { return s.id }
