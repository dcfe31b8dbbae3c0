package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/prob"
)

// Smooth returns the kernel-smoothed version of p: the per-side
// smoothing of Distance, materialized as its own distribution.
func (s *SmoothedJS) Smooth(p prob.Dist) prob.Dist {
	out := make(prob.Dist, len(s.weights))
	s.smoothInto(out, p)
	return out
}

// referenceSmoothedJS is the measure as it was before Distance moved
// into call-local scratch, kept verbatim as the oracle: each side
// smoothed into a fresh distribution, the midpoint materialized as the
// convex combination a·p + (1−a)·q at a = ½, and JS as two KL calls.
func referenceSmoothedJS(s *SmoothedJS, p, q prob.Dist) float64 {
	smooth := func(p prob.Dist) prob.Dist {
		n := len(s.weights)
		out := make(prob.Dist, n)
		for i := 0; i < n; i++ {
			wi := s.weights[i]
			acc := 0.0
			for j := 0; j < n; j++ {
				acc += p[j] * wi[j]
			}
			out[i] = acc
		}
		return out.Normalize()
	}
	ps, qs := smooth(p), smooth(q)
	a := 0.5
	m := make(prob.Dist, len(ps))
	for i := range m {
		m[i] = a*ps[i] + (1-a)*qs[i]
	}
	return 0.5*KL(ps, m) + 0.5*KL(qs, m)
}

// lineMatrix is a ground-distance matrix over n values on a line,
// scaled into [0,1].
func lineMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = math.Abs(float64(i-j)) / float64(n-1)
		}
	}
	return m
}

// TestSmoothedJSMatchesReference pins Distance bit for bit to the
// allocating reference: on domains that exercise smoothInto's
// four-row blocks and every tail length, on one past stackDomain, and
// on sparse distributions with zero components.
func TestSmoothedJSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 4, 14, stackDomain + 5} {
		for _, bw := range []float64{0.01, 0.3, 0.75} {
			s := NewSmoothedJS(lineMatrix(n), kernel.Epanechnikov{}, bw)
			for trial := 0; trial < 200; trial++ {
				p, q := randomDist(rng, n), randomDist(rng, n)
				if trial%3 == 0 {
					q = prob.PointMass(n, rng.Intn(n))
				}
				got, want := s.Distance(p, q), referenceSmoothedJS(s, p, q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d b=%g trial %d: Distance %v != reference %v", n, bw, trial, got, want)
				}
			}
		}
	}
}

// TestSmoothedJSAllocationFree bounds the measure's allocations at
// zero on the Adult-sized domain: it runs once per record of every
// attack.
func TestSmoothedJSAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSmoothedJS(lineMatrix(14), kernel.Epanechnikov{}, 0.5)
	p, q := randomDist(rng, 14), randomDist(rng, 14)
	if allocs := testing.AllocsPerRun(100, func() { s.Distance(p, q) }); allocs != 0 {
		t.Errorf("SmoothedJS.Distance made %v allocations per call, want 0", allocs)
	}
}
