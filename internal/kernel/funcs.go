// Package kernel implements the background-knowledge modeling framework
// of §II: kernel functions, per-attribute semantic distance matrices,
// and the Nadaraya–Watson product-kernel regression estimator that
// turns the table into the adversary's prior belief function
// Ppri : D[QI] → Σ. The bandwidth vector B parameterizes how much
// background knowledge the adversary Adv(B) has — small bandwidths mean
// fine-grained knowledge, large bandwidths mean coarse knowledge.
package kernel

import "math"

// Func is a kernel function K(x; B). Weight returns the unnormalized
// kernel weight for a point at semantic distance x with bandwidth b.
// All distances in this package are normalized to [0,1], so bandwidths
// live in (0, 1] as well; weights must be 0 for |x/b| ≥ 1 except for
// kernels with unbounded support (Gaussian), which decay instead.
type Func interface {
	Weight(x, b float64) float64
	Name() string
}

// Epanechnikov is the paper's kernel: K(x) = ¾·(1/B)(1 − (x/B)²) for
// |x/B| < 1, else 0. It is optimal in the mean-integrated-squared-error
// sense and cheap to evaluate, which is why the paper chooses it.
type Epanechnikov struct{}

// Weight implements Func.
func (Epanechnikov) Weight(x, b float64) float64 {
	u := x / b
	if u <= -1 || u >= 1 {
		return 0
	}
	return 0.75 / b * (1 - u*u)
}

// Name implements Func.
func (Epanechnikov) Name() string { return "epanechnikov" }

// Uniform is the boxcar kernel K(x) = 1/(2B) for |x/B| < 1. With
// bandwidth equal to the attribute range it reduces the estimator to
// the whole-table distribution — the t-closeness adversary (§II-D).
type Uniform struct{}

// Weight implements Func.
func (Uniform) Weight(x, b float64) float64 {
	u := x / b
	if u <= -1 || u >= 1 {
		return 0
	}
	return 0.5 / b
}

// Name implements Func.
func (Uniform) Name() string { return "uniform" }

// Triangular is K(x) = (1/B)(1 − |x/B|) for |x/B| < 1.
type Triangular struct{}

// Weight implements Func.
func (Triangular) Weight(x, b float64) float64 {
	u := math.Abs(x / b)
	if u >= 1 {
		return 0
	}
	return (1 - u) / b
}

// Name implements Func.
func (Triangular) Name() string { return "triangular" }

// Biweight (quartic) is K(x) = (15/16)(1/B)(1 − (x/B)²)² for |x/B| < 1.
type Biweight struct{}

// Weight implements Func.
func (Biweight) Weight(x, b float64) float64 {
	u := x / b
	if u <= -1 || u >= 1 {
		return 0
	}
	v := 1 - u*u
	return 15.0 / 16.0 / b * v * v
}

// Name implements Func.
func (Biweight) Name() string { return "biweight" }

// Gaussian is the standard normal kernel with scale B. Unlike the
// compact kernels it never assigns zero weight, so even a tiny
// bandwidth keeps the prior strictly positive everywhere. The paper's
// accuracy claims are kernel-insensitive (§II-C cites Silverman); we
// include it for the ablation benches.
type Gaussian struct{}

// Weight implements Func.
func (Gaussian) Weight(x, b float64) float64 {
	u := x / b
	return math.Exp(-0.5*u*u) / (b * math.Sqrt(2*math.Pi))
}

// Name implements Func.
func (Gaussian) Name() string { return "gaussian" }
