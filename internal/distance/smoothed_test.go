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
	out := make(prob.Dist, len(s.cols))
	s.smoothInto(out, p)
	return out
}

// TiltBound is tiltBound, for the release checks in package
// distance_test.
func (s *SmoothedJS) TiltBound(p, q prob.Dist) float64 { return s.tiltBound(p, q) }

// ReferenceWeights builds NewSmoothedJS's dense row-normalized weight
// matrix on its own, as the oracle's weights: every row in full, and an
// identity row where the kernel weights the whole row 0.
func ReferenceWeights(m [][]float64, k kernel.Func, bandwidth float64) [][]float64 {
	n := len(m)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		rowSum := 0.0
		for j := range w[i] {
			w[i][j] = k.Weight(m[i][j], bandwidth)
			rowSum += w[i][j]
		}
		for j := range w[i] {
			if rowSum == 0 {
				w[i][j] = 0
				if j == i {
					w[i][j] = 1
				}
				continue
			}
			w[i][j] /= rowSum
		}
	}
	return w
}

// ReferenceSmooth is the dense smoothing the oracle takes: every out[i]
// sums p[j]·w[i][j] over all j in ascending order, then the result is
// normalized.
func ReferenceSmooth(w [][]float64, p prob.Dist) prob.Dist {
	n := len(w)
	out := make(prob.Dist, n)
	for i := 0; i < n; i++ {
		wi := w[i]
		acc := 0.0
		for j := 0; j < n; j++ {
			acc += float64(p[j] * wi[j])
		}
		out[i] = acc
	}
	return out.Normalize()
}

// referenceSmoothedJS is the measure as it was before Distance moved
// into call-local scratch, kept as the oracle: each side smoothed
// densely over the weights w into a fresh distribution, the midpoint
// materialized as the convex combination a·p + (1−a)·q at a = ½, and JS
// as two KL calls.
func referenceSmoothedJS(w [][]float64, p, q prob.Dist) float64 {
	ps, qs := ReferenceSmooth(w, p), ReferenceSmooth(w, q)
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

// isolatedMatrix is lineMatrix with every third value at distance 1
// from every value, itself included, so a bandwidth below 1 weights
// its whole row 0 and NewSmoothedJS keeps the identity row there.
func isolatedMatrix(n int) [][]float64 {
	m := lineMatrix(n)
	for i := 0; i < n; i += 3 {
		for j := range m[i] {
			m[i][j] = 1
		}
	}
	return m
}

// sparseDist returns a distribution on n values with mass on k of
// them, drawn at random: the shape most served priors and posteriors
// have.
func sparseDist(rng *rand.Rand, n, k int) prob.Dist {
	d := make(prob.Dist, n)
	for _, i := range rng.Perm(n)[:k] {
		d[i] = rng.Float64() + 0.01
	}
	return d.Normalize()
}

// matchCase is a measure beside the dense weights its oracle smooths
// with.
type matchCase struct {
	s *SmoothedJS
	w [][]float64
}

// TestSmoothedJSMatchesReference pins Distance, and each side's
// smoothing, bit for bit to the dense allocating reference: on domains
// of 3, 4 and 14 values and one past stackDomain, under a compact kernel
// (banded and block-diagonal weights, so columns are cut to their
// nonzero spans) and a dense one (full columns), with identity rows
// where the bandwidth is degenerate for a value, and on Adult's
// Occupation at the engine's smoothing bandwidth. The inputs are dense
// random distributions, point masses, distributions with 1–3 nonzero
// components, and distributions whose zero components are -0 or whose
// small components are subnormal.
func TestSmoothedJSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	occ, err := adult.OccupationHierarchy().DistanceMatrix(adult.NewSchema().Sensitive.Values)
	if err != nil {
		t.Fatal(err)
	}
	var cases []matchCase
	add := func(m [][]float64, k kernel.Func, bw float64) {
		cases = append(cases, matchCase{NewSmoothedJS(m, k, bw), ReferenceWeights(m, k, bw)})
	}
	for _, k := range []kernel.Func{kernel.Epanechnikov{}, kernel.Gaussian{}} {
		for _, n := range []int{3, 4, 14, stackDomain + 5} {
			for _, bw := range []float64{0.01, 0.3, 0.75} {
				add(lineMatrix(n), k, bw)
			}
			add(isolatedMatrix(n), k, 0.3)
		}
		add(occ, k, 0.51)
	}
	for ci, c := range cases {
		n := len(c.w)
		draw := func(trial int) prob.Dist {
			switch trial % 6 {
			case 0:
				return prob.PointMass(n, rng.Intn(n))
			case 1:
				return sparseDist(rng, n, 1+rng.Intn(min(3, n)))
			case 2:
				// Zero components stored as -0.
				d := sparseDist(rng, n, 1+rng.Intn(n))
				for i := range d {
					if d[i] == 0 {
						d[i] = math.Copysign(0, -1)
					}
				}
				return d
			case 3:
				// Subnormal components beside normal mass.
				d := sparseDist(rng, n, 1+rng.Intn(min(3, n)))
				for i := range d {
					if d[i] == 0 && rng.Intn(2) == 0 {
						d[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
					}
				}
				return d
			}
			return randomDist(rng, n)
		}
		for trial := 0; trial < 300; trial++ {
			p, q := draw(trial), draw(rng.Intn(6))
			if trial%5 == 0 {
				q = prob.PointMass(n, rng.Intn(n))
			}
			got, want := c.s.Distance(p, q), referenceSmoothedJS(c.w, p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (%s, n=%d) trial %d: Distance %v != reference %v\np=%v\nq=%v", ci, c.s.Name(), n, trial, got, want, p, q)
			}
			gs, ws := c.s.Smooth(p), ReferenceSmooth(c.w, p)
			for i := range gs {
				if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
					t.Fatalf("case %d (%s, n=%d) trial %d: Smooth[%d] %v != reference %v\np=%v", ci, c.s.Name(), n, trial, i, gs[i], ws[i], p)
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

// tiltMeasures are the measures TestTiltBoundSound checks on an m-value
// domain: banded weights at wide and narrow bandwidths, the identity
// rows of a degenerate bandwidth, and the dense Gaussian kernel, whose
// columns are all full. At bandwidths 0.01 and 0.019 the Gaussian's far
// weights are subnormal, so those measures have no tilted bound; on 16
// values at 0.019 a point mass smooths to a component of 2⁻¹⁰⁷⁴, where
// js is +Inf, even against the same point mass.
func tiltMeasures(m int) []*SmoothedJS {
	if m == 1 {
		return []*SmoothedJS{NewSmoothedJS([][]float64{{0}}, kernel.Epanechnikov{}, 0.3)}
	}
	var out []*SmoothedJS
	for _, k := range []kernel.Func{kernel.Epanechnikov{}, kernel.Gaussian{}} {
		for _, bw := range []float64{0.01, 0.019, 0.3, 0.75} {
			out = append(out, NewSmoothedJS(lineMatrix(m), k, bw))
		}
		out = append(out, NewSmoothedJS(isolatedMatrix(m), k, 0.3))
	}
	return out
}

// tinyPairs adds to boundPairs' set the masses the tilted bound's
// guard decides on: components just above and just below tiltTiny,
// subnormal components beside normal mass, and a pair whose whole mass
// is tiny.
func tinyPairs(rng *rand.Rand, m int) [][2]prob.Dist {
	out := boundPairs(rng, m)
	for trial := 0; trial < 100; trial++ {
		p, q := sparseDist(rng, m, 1+rng.Intn(m)), sparseDist(rng, m, 1+rng.Intn(m))
		for _, d := range []prob.Dist{p, q} {
			for i := range d {
				if d[i] != 0 || rng.Intn(2) == 0 {
					continue
				}
				switch rng.Intn(3) {
				case 0:
					d[i] = tiltTiny * (1 + 3*rng.Float64())
				case 1:
					d[i] = tiltTiny * rng.Float64()
				default:
					d[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
				}
			}
		}
		out = append(out, [2]prob.Dist{p, q})
		scaled := append(prob.Dist(nil), p...)
		for i := range scaled {
			scaled[i] *= 0x1p-300
		}
		out = append(out, [2]prob.Dist{scaled, q})
	}
	return out
}

// TestTiltBoundSound checks tiltBound, the bound that decides most
// (B,t) checks and risk-pass pairs without smoothing, against the
// computed js of the smoothed pair, on every tinyPairs pair of every
// tiltMeasures measure on domains from one value to 64: tiltBound ≥ js
// always, and the rounding slack is at least 1e6 times the largest
// excess of computed js over the computed bound without it. Each guard
// is exercised: some measures have no tilted bound, and some pairs get
// +Inf.
func TestTiltBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	excess := math.Inf(-1)
	pairs, inf, noTilt := 0, 0, 0
	for _, m := range []int{1, 2, 3, 14, 16, stackDomain - 1, stackDomain, stackDomain + 1, 64} {
		for _, s := range tiltMeasures(m) {
			if s.tilt == nil {
				noTilt++
			}
			for _, pq := range tinyPairs(rng, m) {
				p, q := pq[0], pq[1]
				j, tb := s.Distance(p, q), s.tiltBound(p, q)
				if !(j <= tb) {
					t.Fatalf("m=%d %s: js %v above the tilted bound %v\np=%v\nq=%v", m, s.Name(), j, tb, p, q)
				}
				if math.IsInf(tb, 1) {
					inf++
				} else {
					excess = math.Max(excess, j-(tb-boundSlack))
				}
				pairs++
			}
		}
	}
	if boundSlack < 1e6*excess {
		t.Errorf("bound slack %g is below 1e6 × the largest excess %g", boundSlack, excess)
	}
	if noTilt == 0 || inf == 0 || inf == pairs {
		t.Errorf("%d measures without a tilted bound, %d of %d pairs guarded: the guards are not exercised", noTilt, inf, pairs)
	}
	t.Logf("%d pairs (%d guarded, %d measures without a tilted bound): largest excess of js over the bound without slack %g", pairs, inf, noTilt, excess)
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
