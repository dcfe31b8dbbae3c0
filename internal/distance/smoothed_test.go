package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adult"
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
// four-row blocks and every tail length, on one past stackDomain, on
// sparse distributions with zero components, under a compact kernel
// (banded and block-diagonal weights, so rows are cut to their nonzero
// spans) and a dense one (full rows), and on Adult's Occupation at the
// engine's smoothing bandwidth.
func TestSmoothedJSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	occ, err := adult.OccupationHierarchy().DistanceMatrix(adult.NewSchema().Sensitive.Values)
	if err != nil {
		t.Fatal(err)
	}
	var cases []*SmoothedJS
	for _, k := range []kernel.Func{kernel.Epanechnikov{}, kernel.Gaussian{}} {
		for _, n := range []int{3, 4, 14, stackDomain + 5} {
			for _, bw := range []float64{0.01, 0.3, 0.75} {
				cases = append(cases, NewSmoothedJS(lineMatrix(n), k, bw))
			}
		}
		cases = append(cases, NewSmoothedJS(occ, k, 0.51))
	}
	for ci, s := range cases {
		n := len(s.weights)
		for trial := 0; trial < 200; trial++ {
			p, q := randomDist(rng, n), randomDist(rng, n)
			if trial%3 == 0 {
				q = prob.PointMass(n, rng.Intn(n))
			}
			got, want := s.Distance(p, q), referenceSmoothedJS(s, p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (%s, n=%d) trial %d: Distance %v != reference %v", ci, s.Name(), n, trial, got, want)
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

// boundPairs is the adversarial and random pair set the bound is
// checked on over an m-value domain: random pairs, disjoint supports,
// identical and near-identical pairs (differences around 1e-15), point
// masses, pairs with zero cells, and a subnormal mass beside a zero,
// where js is +Inf.
func boundPairs(rng *rand.Rand, m int) [][2]prob.Dist {
	var out [][2]prob.Dist
	add := func(p, q prob.Dist) { out = append(out, [2]prob.Dist{p, q}) }
	for trial := 0; trial < 200; trial++ {
		p, q := randomDist(rng, m), randomDist(rng, m)
		add(p, q)
		add(p, p)
		near := append(prob.Dist(nil), p...)
		for i := range near {
			near[i] += (rng.Float64() - 0.5) * 2e-15
			if near[i] < 0 {
				near[i] = 0
			}
		}
		add(p, near)
		zp, zq := append(prob.Dist(nil), p...), append(prob.Dist(nil), q...)
		for i := range zp {
			if rng.Intn(3) == 0 {
				zp[i] = 0
			}
			if rng.Intn(3) == 0 {
				zq[i] = 0
			}
		}
		add(zp.Normalize(), zq.Normalize())
		add(prob.PointMass(m, rng.Intn(m)), prob.PointMass(m, rng.Intn(m)))
		add(prob.PointMass(m, rng.Intn(m)), q)
	}
	if m > 1 {
		half := m / 2
		p, q := make(prob.Dist, m), make(prob.Dist, m)
		for i := 0; i < m; i++ {
			if i < half {
				p[i] = 1 / float64(half)
			} else {
				q[i] = 1 / float64(m-half)
			}
		}
		add(p, q)
		sub := append(prob.Dist(nil), p...)
		sub[m-1] = math.SmallestNonzeroFloat64
		add(sub, p)
	}
	return out
}

// TestJSBoundSound checks jsBound, the log-free bound that decides
// (B,t) checks and worst-case risk, against the computed js on every
// boundPairs pair on domains from one value to 64 (past stackDomain):
// js ≤ jsBound always, and the rounding slack is at least 1e6 times
// the largest excess of computed js over the computed bound without
// it.
func TestJSBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	excess := 0.0
	pairs := 0
	for _, m := range []int{1, 2, 3, 14, stackDomain - 1, stackDomain, stackDomain + 1, 64} {
		for _, pq := range boundPairs(rng, m) {
			p, q := pq[0], pq[1]
			j, u := js(p, q), jsBound(p, q)
			if !(j <= u) {
				t.Fatalf("m=%d: js %v above its bound %v\np=%v\nq=%v", m, j, u, p, q)
			}
			if !math.IsInf(u, 1) {
				excess = math.Max(excess, j-(u-boundSlack))
			}
			pairs++
		}
	}
	if boundSlack < 1e6*excess {
		t.Errorf("bound slack %g is below 1e6 × the largest excess %g", boundSlack, excess)
	}
	t.Logf("%d pairs: largest excess of js over the bound without slack %g", pairs, excess)
}

// TestBoundedContract pins distance.Bounded: a result above floor is
// Distance bit for bit, and a result at or below floor is an upper
// bound on Distance that proves Distance ≤ floor; a measure without a
// bound always measures exactly.
func TestBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	floors := []float64{math.Inf(-1), 0, 1e-12, 0.05, 0.25, 1, math.Inf(1)}
	for _, n := range []int{4, 14, stackDomain + 5} {
		s := NewSmoothedJS(lineMatrix(n), kernel.Epanechnikov{}, 0.3)
		pruned := 0
		for _, pq := range boundPairs(rng, n) {
			p, q := pq[0], pq[1]
			d := s.Distance(p, q)
			for _, floor := range floors {
				v := Bounded(s, p, q, floor)
				if v > floor && math.Float64bits(v) != math.Float64bits(d) {
					t.Fatalf("n=%d floor=%g: Bounded %v above floor but Distance %v", n, floor, v, d)
				}
				if !(v > floor) && !(d <= v && d <= floor) {
					t.Fatalf("n=%d floor=%g: Bounded %v does not bound Distance %v under the floor", n, floor, v, d)
				}
				if !(v > floor) && math.Float64bits(v) != math.Float64bits(d) {
					pruned++
				}
			}
			if got := Bounded(JSMeasure(), p, q, 1); math.Float64bits(got) != math.Float64bits(JS(p, q)) {
				t.Fatalf("a measure without a bound: Bounded %v != JS %v", got, JS(p, q))
			}
		}
		if pruned == 0 {
			t.Errorf("n=%d: no pair was settled by its bound", n)
		}
	}
}
