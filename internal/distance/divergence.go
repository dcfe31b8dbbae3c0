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
		m := float64(0.5*pi) + float64(0.5*qi)
		if pi != 0 {
			if m == 0 {
				return math.Inf(1)
			}
			kp += float64(pi * math.Log2(pi/m))
		}
		if qi != 0 {
			if m == 0 {
				return math.Inf(1)
			}
			kq += float64(qi * math.Log2(qi/m))
		}
	}
	return float64(0.5*kp) + float64(0.5*kq)
}

// boundSlack is added to every computed jsBound and tiltBound, so that
// each bounds the computed js, not only the exact one: the sums round
// differently. The largest excess of computed js over computed U seen
// was 1.6e-16 over 96,000 Ω attack pairs on three n=2000 Adult tables;
// the slack stays at least 1e6 times the largest excess
// TestJSBoundSound and TestTiltBoundSound see (DESIGN.md "Deciding by
// bound").
const boundSlack = 1e-9

// tinyMass is the component mass below which jsBound gives up: js turns
// a positive component whose midpoint rounds to zero (a subnormal
// 2^-1074 beside a zero) into +Inf, which no finite bound covers.
const tinyMass = 0x1p-1021

// jsBound returns U + boundSlack, a log-free upper bound on js(p, q):
// U = ½ Σ_{i: p_i+q_i>0} (p_i−q_i)²/(p_i+q_i), Topsøe's triangular
// discrimination bound in bits. Per component, with s = p_i+q_i and
// x = (p_i−q_i)/s, the JS term is (s/2)·(1 − H₂((1+x)/2)) ≤ (s/2)·x²
// (DESIGN.md "Deciding by bound"). It is +Inf when a component's mass
// is below tinyMass.
//
//detlint:hotpath
func jsBound(p, q []float64) float64 {
	u := 0.0
	for i, pi := range p {
		qi := q[i]
		s := pi + qi
		if s == 0 {
			continue
		}
		if s < tinyMass {
			return math.Inf(1)
		}
		d := pi - qi
		u += d * d / s
	}
	return float64(0.5*u) + boundSlack
}

// bounder is a Measure with a log-free upper bound: distanceOrBound
// returns the bound when it is at most floor, else the exact distance.
type bounder interface {
	distanceOrBound(p, q prob.Dist, floor float64) float64
}

// Bounded returns m's D[p, q], or — when m has a log-free upper bound
// on D[p, q] that is at most floor — that bound instead. So a result
// above floor is exactly m.Distance(p, q), bit for bit, and a result at
// or below floor proves D[p, q] ≤ floor. A floor of -Inf always
// measures exactly. Only *SmoothedJS has a bound; any other measure
// counts as having an infinite one and is measured exactly.
func Bounded(m Measure, p, q prob.Dist, floor float64) float64 {
	if b, ok := m.(bounder); ok {
		return b.distanceOrBound(p, q, floor)
	}
	return m.Distance(p, q)
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
