package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/prob"
)

// The classical measures of §IV-B that the paper argues against, and
// the closed-form EMDs of the t-closeness paper for ordered and
// hierarchical domains. The framework computes with SmoothedJS and
// matrix EMD only; these stay as test oracles and as the other rows of
// the conformance table.

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

// EMDMeasure wraps matrix EMD as a Measure.
func EMDMeasure(m [][]float64) Measure {
	return MeasureFunc{
		F:  func(p, q prob.Dist) float64 { return EMD(p, q, m) },
		ID: "EMD",
	}
}

// EMDOrdered returns the Earth Mover's Distance between two
// distributions over a totally ordered domain with unit-normalized
// adjacent distances: the classical 1-D closed form
// EMD = Σ_i |Σ_{j≤i}(p_j - q_j)| / (m-1), as used by t-closeness for
// numeric sensitive attributes.
func EMDOrdered(p, q prob.Dist) float64 {
	if len(p) != len(q) {
		panic("distance: EMD over different domains")
	}
	m := len(p)
	if m <= 1 {
		return 0
	}
	cum, s := 0.0, 0.0
	for i := 0; i < m-1; i++ {
		cum += p[i] - q[i]
		s += math.Abs(cum)
	}
	return s / float64(m-1)
}

// Tree is a sensitive-domain hierarchy for EMDHierarchical.
type Tree struct {
	// Children of this node; a leaf has none.
	Children []*Tree
	// Leaf is the sensitive-domain index for leaves, -1 otherwise.
	Leaf int
}

// EMDHierarchical returns the hierarchical EMD between p and q over the
// given tree, which must have all leaves at depth exactly height. On
// such a tree the semantic distance (H−depth(LCA))/H decomposes into
// 2·(H−depth(LCA)) edge crossings of uniform cost 1/(2H), and the
// optimal flow through each edge is the net imbalance of the subtree
// below it — giving a linear-time closed form for the transportation
// problem, as used by t-closeness for hierarchical sensitive domains.
func EMDHierarchical(p, q prob.Dist, root *Tree, height int) float64 {
	if height <= 0 {
		panic("distance: hierarchical EMD needs positive height")
	}
	edgeCost := 1 / (2 * float64(height))
	var walk func(n *Tree) (net float64, cost float64)
	walk = func(n *Tree) (float64, float64) {
		if n.Leaf >= 0 {
			return p[n.Leaf] - q[n.Leaf], 0
		}
		net, cost := 0.0, 0.0
		// Children settle mass internally first; what cannot be settled
		// crosses the child→this edge, paying the uniform edge cost.
		for _, c := range n.Children {
			cn, cc := walk(c)
			cost += cc + math.Abs(cn)*edgeCost
			net += cn
		}
		return net, cost
	}
	_, cost := walk(root)
	// The root has no parent edge; imbalance there is zero for
	// equal-mass distributions, so nothing is dropped.
	return cost
}

func randomDist(rng *rand.Rand, m int) prob.Dist {
	d := make(prob.Dist, m)
	for i := range d {
		d[i] = rng.Float64()
	}
	return d.Normalize()
}

func TestKLBasics(t *testing.T) {
	p := prob.Dist{0.5, 0.5}
	if d := KL(p, p); d != 0 {
		t.Errorf("KL(p,p) = %g", d)
	}
	// Known value: KL((1,0),(0.5,0.5)) = 1 bit.
	if d := KL(prob.Dist{1, 0}, prob.Dist{0.5, 0.5}); math.Abs(d-1) > 1e-12 {
		t.Errorf("KL = %g, want 1", d)
	}
}

func TestKLZeroProbabilityUndefined(t *testing.T) {
	// The zero-probability definability failure of §IV-B.1.
	d := KL(prob.Dist{0.5, 0.5}, prob.Dist{1, 0})
	if !math.IsInf(d, 1) {
		t.Errorf("KL with q_i = 0 should be +Inf, got %g", d)
	}
}

func TestJSWellDefinedWithZeros(t *testing.T) {
	d := JS(prob.Dist{1, 0}, prob.Dist{0, 1})
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("JS of disjoint = %g, want 1", d)
	}
	if d := JS(prob.Dist{0.5, 0.5}, prob.Dist{1, 0}); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("JS not finite: %g", d)
	}
}

func TestJSProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(12)
		p, q := randomDist(rng, m), randomDist(rng, m)
		d := JS(p, q)
		// Identity, non-negativity, boundedness, symmetry.
		return JS(p, p) == 0 && d >= 0 && d <= 1+1e-12 && math.Abs(d-JS(q, p)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEMDOrdered(t *testing.T) {
	// Moving all mass one step in a 3-value ordered domain costs 1/2.
	p := prob.Dist{1, 0, 0}
	q := prob.Dist{0, 1, 0}
	if d := EMDOrdered(p, q); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("EMDOrdered = %g, want 0.5", d)
	}
	// Full-domain move costs 1.
	if d := EMDOrdered(prob.Dist{1, 0, 0}, prob.Dist{0, 0, 1}); math.Abs(d-1) > 1e-12 {
		t.Errorf("EMDOrdered = %g, want 1", d)
	}
}

func TestEMDMatrixMatchesOrdered(t *testing.T) {
	// With the 1-D ground distance |i-j|/(m-1), the transportation
	// solution must equal the closed-form cumulative formula.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(8)
		grid := make([][]float64, m)
		for i := range grid {
			grid[i] = make([]float64, m)
			for j := range grid[i] {
				grid[i][j] = math.Abs(float64(i-j)) / float64(m-1)
			}
		}
		p, q := randomDist(rng, m), randomDist(rng, m)
		return math.Abs(EMD(p, q, grid)-EMDOrdered(p, q)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEMDHierarchicalMatchesMatrix(t *testing.T) {
	// Height-2 tree over 4 leaves: {0,1} under one branch, {2,3} under
	// another. Ground distances: siblings 0.5, cross-branch 1.
	tree := &Tree{Leaf: -1, Children: []*Tree{
		{Leaf: -1, Children: []*Tree{{Leaf: 0}, {Leaf: 1}}},
		{Leaf: -1, Children: []*Tree{{Leaf: 2}, {Leaf: 3}}},
	}}
	m := [][]float64{
		{0, 0.5, 1, 1},
		{0.5, 0, 1, 1},
		{1, 1, 0, 0.5},
		{1, 1, 0.5, 0},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := randomDist(rng, 4), randomDist(rng, 4)
		return math.Abs(EMDHierarchical(p, q, tree, 2)-EMD(p, q, m)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEMDZeroAndSymmetry(t *testing.T) {
	m := [][]float64{{0, 1}, {1, 0}}
	p := prob.Dist{0.3, 0.7}
	if d := EMD(p, p, m); d != 0 {
		t.Errorf("EMD(p,p) = %g", d)
	}
	q := prob.Dist{0.8, 0.2}
	if math.Abs(EMD(p, q, m)-EMD(q, p, m)) > 1e-12 {
		t.Error("EMD not symmetric for symmetric ground distance")
	}
	if math.Abs(EMD(p, q, m)-0.5) > 1e-12 {
		t.Errorf("EMD = %g, want 0.5 (move 0.5 mass at cost 1)", EMD(p, q, m))
	}
}

func TestEMDScalingFailure(t *testing.T) {
	// §IV-B.1: EMD gives the same value 0.1 to (0.01,0.99)→(0.11,0.89)
	// and (0.4,0.6)→(0.5,0.5) — no probability scaling.
	m := [][]float64{{0, 1}, {1, 0}}
	d1 := EMD(prob.Dist{0.01, 0.99}, prob.Dist{0.11, 0.89}, m)
	d2 := EMD(prob.Dist{0.4, 0.6}, prob.Dist{0.5, 0.5}, m)
	if math.Abs(d1-0.1) > 1e-12 || math.Abs(d2-0.1) > 1e-12 {
		t.Errorf("EMD = %g, %g, want 0.1, 0.1", d1, d2)
	}
	// JS, by contrast, scales: the low-probability change is larger.
	j1 := JS(prob.Dist{0.01, 0.99}, prob.Dist{0.11, 0.89})
	j2 := JS(prob.Dist{0.4, 0.6}, prob.Dist{0.5, 0.5})
	if j1 <= j2 {
		t.Errorf("JS should weight the small-probability change more: %g vs %g", j1, j2)
	}
}

// sensMatrix is a height-2 hierarchy distance matrix over 4 values.
var sensMatrix = [][]float64{
	{0, 0.5, 1, 1},
	{0.5, 0, 1, 1},
	{1, 1, 0, 0.5},
	{1, 1, 0.5, 0},
}

func TestSmoothedJSDesiderata(t *testing.T) {
	s := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := randomDist(rng, 4), randomDist(rng, 4)
		d := s.Distance(p, q)
		// 1. identity of indiscernibles, 2. non-negativity,
		// 4. zero-probability definability.
		if s.Distance(p, p) != 0 || d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// 4 again, with explicit zeros.
	d := s.Distance(prob.Dist{1, 0, 0, 0}, prob.Dist{0, 0, 0, 1})
	if math.IsNaN(d) || math.IsInf(d, 0) {
		t.Errorf("smoothed JS undefined with zeros: %g", d)
	}
	// 3. probability scaling (inherited from JS).
	d1 := s.Distance(prob.Dist{0.01, 0.99, 0, 0}, prob.Dist{0.11, 0.89, 0, 0})
	d2 := s.Distance(prob.Dist{0.4, 0.6, 0, 0}, prob.Dist{0.5, 0.5, 0, 0})
	if d1 <= d2 {
		t.Errorf("no probability scaling: %g vs %g", d1, d2)
	}
}

func TestSmoothedJSSemanticAwareness(t *testing.T) {
	// Desideratum 5: moving mass to a semantically close value must
	// cost less than moving it to a distant one. Values 0,1 are
	// siblings; 0,2 are cross-branch.
	s := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.6)
	base := prob.Dist{1, 0, 0, 0}
	near := prob.Dist{0, 1, 0, 0} // sibling
	far := prob.Dist{0, 0, 1, 0}  // other branch
	if dn, df := s.Distance(base, near), s.Distance(base, far); dn >= df {
		t.Errorf("semantic awareness violated: near %g >= far %g", dn, df)
	}
	// Plain JS cannot tell the difference.
	if JS(base, near) != JS(base, far) {
		t.Error("plain JS unexpectedly semantic-aware")
	}
}

func TestSmoothedJSAsymmetryAllowed(t *testing.T) {
	// §IV-B: D need not be a metric. Just confirm the measure runs in
	// both directions and stays finite (symmetry is not required).
	s := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.6)
	p := prob.Dist{0.9, 0.1, 0, 0}
	q := prob.Dist{0.25, 0.25, 0.25, 0.25}
	if d := s.Distance(p, q); d < 0 {
		t.Errorf("negative distance %g", d)
	}
	if d := s.Distance(q, p); d < 0 {
		t.Errorf("negative distance %g", d)
	}
}

func TestSmoothedJSDegenerateBandwidth(t *testing.T) {
	// A bandwidth so small that no smoothing happens: falls back to
	// plain JS rather than dividing by zero. Epanechnikov weight at
	// distance 0 is positive, so rows keep their identity weight.
	s := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.01)
	p := prob.Dist{1, 0, 0, 0}
	q := prob.Dist{0, 1, 0, 0}
	if d, want := s.Distance(p, q), JS(p, q); math.Abs(d-want) > 1e-9 {
		t.Errorf("tiny-bandwidth smoothed JS = %g, want plain JS %g", d, want)
	}
}

func TestSmoothPreservesDistribution(t *testing.T) {
	s := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.75)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDist(rng, 4)
		return s.Smooth(p).Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasureNames(t *testing.T) {
	if KLMeasure().Name() != "KL" || JSMeasure().Name() != "JS" {
		t.Error("unexpected measure names")
	}
	if EMDMeasure(sensMatrix).Name() != "EMD" {
		t.Error("unexpected EMD name")
	}
	s := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.6)
	if s.Name() != "smoothedJS(epanechnikov)" {
		t.Errorf("name = %s", s.Name())
	}
}
