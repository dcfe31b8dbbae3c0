// Package distance implements the distance measures of §IV-B that the
// framework computes with: the paper's own measure, kernel-smoothed
// Jensen–Shannon divergence (SmoothedJS), and the Earth Mover's
// Distance under a ground-distance matrix (EMD), which t-closeness
// uses. The classical divergences the paper surveys (Kullback–Leibler,
// Jensen–Shannon, ordered and hierarchical EMD, Hellinger, total
// variation) live in the package's tests, which assert §IV-B's
// argument as a conformance table: only the smoothed measure satisfies
// all five desiderata — identity of indiscernibles, non-negativity,
// probability scaling, zero-probability definability, and semantic
// awareness.
package distance

import (
	"math"

	"repro/internal/prob"
)

// js returns the Jensen–Shannon divergence
// JS(P,Q) = ½KL(P‖M) + ½KL(Q‖M) with M = (P+Q)/2, in bits, without
// allocating: M is formed per component, and KL(P‖M) and KL(Q‖M)
// accumulate in component order into their own sums, exactly as two KL
// calls over a materialized M.
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
