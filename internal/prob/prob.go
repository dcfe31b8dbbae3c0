// Package prob provides dense finite probability distributions and the
// small amount of numerical machinery the anonymization framework needs:
// normalization, validation, entropy, and support queries.
//
// A Dist is a slice of non-negative weights over an indexed domain
// (typically the domain of the sensitive attribute). Most operations
// treat the slice as immutable and return fresh slices.
package prob

import (
	"errors"
	"fmt"
	"math"
)

// Epsilon is the tolerance used when validating that probabilities sum
// to one. Kernel weights and posterior normalizations accumulate error
// in the last few ulps; 1e-9 is far above that but far below anything
// that would distort a privacy decision.
const Epsilon = 1e-9

// Dist is a probability distribution over an indexed finite domain.
type Dist []float64

// ErrNotNormalized reports a distribution whose mass is not 1.
var ErrNotNormalized = errors.New("prob: distribution mass is not 1")

// ErrNegative reports a distribution with a negative component.
var ErrNegative = errors.New("prob: negative probability")

// ErrEmpty reports an empty distribution.
var ErrEmpty = errors.New("prob: empty distribution")

// New returns a zero distribution over a domain of size m.
func New(m int) Dist { return make(Dist, m) }

// Uniform returns the uniform distribution over a domain of size m.
func Uniform(m int) Dist {
	d := make(Dist, m)
	for i := range d {
		d[i] = 1 / float64(m)
	}
	return d
}

// PointMass returns the distribution that puts all mass on index i.
func PointMass(m, i int) Dist {
	d := make(Dist, m)
	d[i] = 1
	return d
}

// FromCounts converts a histogram of counts into a distribution.
// A zero histogram yields the uniform distribution: it arises only for
// empty groups, and uniform is the maximum-entropy completion.
func FromCounts(counts []int) Dist {
	d := make(Dist, len(counts))
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return Uniform(len(counts))
	}
	for i, c := range counts {
		d[i] = float64(c) / float64(total)
	}
	return d
}

// Clone returns a copy of d.
func (d Dist) Clone() Dist {
	c := make(Dist, len(d))
	copy(c, d)
	return c
}

// Sum returns the total mass of d.
func (d Dist) Sum() float64 {
	s := 0.0
	for _, p := range d {
		s += p
	}
	return s
}

// Normalize scales d in place so its mass is 1 and returns d.
// Normalizing a zero distribution sets it to uniform.
func (d Dist) Normalize() Dist {
	s := d.Sum()
	if s <= 0 {
		u := Uniform(len(d))
		copy(d, u)
		return d
	}
	for i := range d {
		d[i] /= s
	}
	return d
}

// Validate reports whether d is a proper probability distribution.
func (d Dist) Validate() error {
	if len(d) == 0 {
		return ErrEmpty
	}
	for i, p := range d {
		if p < 0 {
			return fmt.Errorf("%w: component %d = %g", ErrNegative, i, p)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("prob: component %d = %g is not finite", i, p)
		}
	}
	if math.Abs(d.Sum()-1) > 1e-6 {
		return fmt.Errorf("%w: sum = %g", ErrNotNormalized, d.Sum())
	}
	return nil
}

// Max returns the largest component of d and its index.
func (d Dist) Max() (float64, int) {
	best, at := math.Inf(-1), -1
	for i, p := range d {
		if p > best {
			best, at = p, i
		}
	}
	return best, at
}

// Identical reports whether p and q hold bit-identical components, so
// any deterministic computation over them agrees bit for bit (unlike
// Equal at tolerance 0, it tells -0 from +0). One slice seen twice is
// decided without reading it.
func Identical(p, q Dist) bool {
	if len(p) != len(q) {
		return false
	}
	if len(p) == 0 || &p[0] == &q[0] {
		return true
	}
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether p and q agree componentwise within tol.
func Equal(p, q Dist, tol float64) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > tol {
			return false
		}
	}
	return true
}

// TotalVariation returns half the L1 distance between p and q, the
// classical statistical distance. It is used in tests as an independent
// yardstick for the framework's own measures.
func TotalVariation(p, q Dist) float64 {
	if len(p) != len(q) {
		panic("prob: distributions over different domains")
	}
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}
