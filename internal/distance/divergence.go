// Package distance implements the distance measures of §IV-B: the
// classical divergences the paper surveys (Kullback–Leibler,
// Jensen–Shannon, Earth Mover's Distance) and the paper's own measure —
// kernel-smoothed Jensen–Shannon divergence — which satisfies all five
// desiderata: identity of indiscernibles, non-negativity, probability
// scaling, zero-probability definability, and semantic awareness.
package distance

import (
	"math"

	"repro/internal/prob"
)

// KL returns the Kullback–Leibler divergence KL(P‖Q) in bits.
// It is +Inf when some p_i > 0 has q_i = 0 — the zero-probability
// definability failure the paper calls out — and NaN-free otherwise.
func KL(p, q prob.Dist) float64 {
	if len(p) != len(q) {
		panic("distance: KL over different domains")
	}
	s := 0.0
	for i := range p {
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1)
		}
		s += p[i] * math.Log2(p[i]/q[i])
	}
	return s
}

// JS returns the Jensen–Shannon divergence
// JS(P,Q) = ½KL(P‖M) + ½KL(Q‖M) with M = (P+Q)/2, in bits.
// It is always finite and lies in [0,1].
func JS(p, q prob.Dist) float64 {
	if len(p) != len(q) {
		panic("distance: JS over different domains")
	}
	return js(p, q)
}

// js is JS without allocating: the midpoint M = (P+Q)/2 is formed per
// component, and KL(P‖M) and KL(Q‖M) accumulate in component order
// into their own sums, exactly as two KL calls over a materialized M.
// A positive component facing a zero midpoint makes KL, and so JS,
// +Inf.
//
//detlint:hotpath
func js(p, q []float64) float64 {
	kp, kq := 0.0, 0.0
	for i, pi := range p {
		qi := q[i]
		m := 0.5*pi + 0.5*qi
		if pi != 0 {
			if m == 0 {
				return math.Inf(1)
			}
			kp += pi * math.Log2(pi/m)
		}
		if qi != 0 {
			if m == 0 {
				return math.Inf(1)
			}
			kq += qi * math.Log2(qi/m)
		}
	}
	return 0.5*kp + 0.5*kq
}

// Measure is a distance between two probability distributions over the
// sensitive domain. It quantifies the information an adversary gains
// moving from prior p to posterior q. It need not be symmetric or
// satisfy the triangle inequality (§IV-B).
type Measure interface {
	// Distance returns D[p, q] ≥ 0 with D[p, p] = 0.
	Distance(p, q prob.Dist) float64
	// Name identifies the measure in reports.
	Name() string
}

// MeasureFunc adapts a function to the Measure interface.
type MeasureFunc struct {
	F  func(p, q prob.Dist) float64
	ID string
}

// Distance invokes the wrapped function.
func (m MeasureFunc) Distance(p, q prob.Dist) float64 { return m.F(p, q) }

// Name returns the measure's identifier.
func (m MeasureFunc) Name() string { return m.ID }

// KLMeasure is KL divergence as a Measure.
func KLMeasure() Measure { return MeasureFunc{F: KL, ID: "KL"} }

// JSMeasure is JS divergence as a Measure.
func JSMeasure() Measure { return MeasureFunc{F: JS, ID: "JS"} }
