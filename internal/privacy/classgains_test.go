package privacy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/inference"
	"repro/internal/prob"
)

// countingMeasure is a deterministic measure that counts its calls.
type countingMeasure struct {
	inner distance.Measure
	calls int
}

func (c *countingMeasure) Distance(p, q prob.Dist) float64 {
	c.calls++
	return c.inner.Distance(p, q)
}

func (c *countingMeasure) Name() string { return c.inner.Name() }

// TestClassGainsMeasuresEachDistinctPairOnce checks ClassGains against
// the method's own Posteriors and measuring every tuple: posteriors and
// gains agree bit for bit under Ω, exact and adaptive inference, the
// measure runs once per tuple that starts a run of identical (prior,
// posterior) pairs, and under Ω that is once per distinct prior.
func TestClassGainsMeasuresEachDistinctPairOnce(t *testing.T) {
	m := 4
	smooth := distance.NewSmoothedJS(flatMatrix(m), nil, 0.6)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		profiles := make([]prob.Dist, 1+rng.Intn(3))
		for i := range profiles {
			profiles[i] = randomPrior(rng, m)
		}
		k := 1 + rng.Intn(8)
		priors := make([]prob.Dist, k)
		svals := make([]int, k)
		for j := range priors {
			priors[j] = profiles[rng.Intn(len(profiles))]
			svals[j] = rng.Intn(m)
		}
		counts := inference.GroupCounts(svals, m)
		first := make([]int, k)
		distinct := inference.FirstSharers(priors, first)
		for _, method := range []inference.Method{inference.Omega{}, inference.Exact{}, inference.Adaptive{}} {
			meas := &countingMeasure{inner: smooth}
			gains, same := make([]float64, k), make([]int, k)
			posts, err := ClassGains(method, meas, priors, counts, gains, same, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			direct := method.Posteriors(priors, counts)
			measured := 0
			for i := range priors {
				if !prob.Identical(posts[i], direct[i]) {
					t.Fatalf("%s trial %d tuple %d: posterior %v != Posteriors %v", method.Name(), trial, i, posts[i], direct[i])
				}
				want := smooth.Distance(priors[i], posts[i])
				if math.Float64bits(gains[i]) != math.Float64bits(want) {
					t.Fatalf("%s trial %d tuple %d: gain %v != measured %v", method.Name(), trial, i, gains[i], want)
				}
				if j := same[i]; j == i {
					measured++
				} else if j > i || first[i] != j || !prob.Identical(posts[i], posts[j]) {
					t.Fatalf("%s trial %d: same[%d] = %d, first sharer %d", method.Name(), trial, i, j, first[i])
				}
			}
			if meas.calls != measured {
				t.Errorf("%s trial %d: %d measure calls for %d measured tuples", method.Name(), trial, meas.calls, measured)
			}
			if method.Name() == inference.NameOmega && measured != distinct {
				t.Errorf("omega trial %d: measured %d tuples, %d distinct priors", trial, measured, distinct)
			}
		}
	}
}

func randomPrior(rng *rand.Rand, m int) prob.Dist {
	d := make(prob.Dist, m)
	for i := range d {
		d[i] = 0.05 + rng.Float64()
	}
	return d.Normalize()
}
