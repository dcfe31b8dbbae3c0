package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/prob"
)

func TestKernelShapes(t *testing.T) {
	kernels := []Func{Epanechnikov{}, Uniform{}, Triangular{}, Biweight{}, Gaussian{}}
	for _, k := range kernels {
		if w := k.Weight(0, 0.5); w <= 0 {
			t.Errorf("%s: zero-distance weight = %g", k.Name(), w)
		}
		// Symmetric in x.
		if k.Weight(0.2, 0.5) != k.Weight(-0.2, 0.5) {
			t.Errorf("%s: not symmetric", k.Name())
		}
		// Non-increasing in |x| within support.
		if k.Weight(0.1, 0.5) < k.Weight(0.4, 0.5) {
			t.Errorf("%s: not decreasing in distance", k.Name())
		}
	}
}

func TestCompactSupport(t *testing.T) {
	for _, k := range []Func{Epanechnikov{}, Uniform{}, Triangular{}, Biweight{}} {
		if w := k.Weight(0.5, 0.5); w != 0 {
			t.Errorf("%s: weight at boundary = %g, want 0", k.Name(), w)
		}
		if w := k.Weight(0.7, 0.5); w != 0 {
			t.Errorf("%s: weight outside support = %g, want 0", k.Name(), w)
		}
	}
	// Gaussian has unbounded support.
	if w := (Gaussian{}).Weight(0.7, 0.5); w <= 0 {
		t.Errorf("Gaussian weight = %g, want positive", w)
	}
}

func TestEpanechnikovValue(t *testing.T) {
	// K(x) = 3/(4B) (1 - (x/B)^2); at x = 0, B = 1: 0.75.
	if w := (Epanechnikov{}).Weight(0, 1); math.Abs(w-0.75) > 1e-12 {
		t.Errorf("K(0;1) = %g, want 0.75", w)
	}
	// At x = 0.5, B = 1: 0.75 * 0.75 = 0.5625.
	if w := (Epanechnikov{}).Weight(0.5, 1); math.Abs(w-0.5625) > 1e-12 {
		t.Errorf("K(0.5;1) = %g, want 0.5625", w)
	}
}

// smallTable builds a 1-QI-attribute table matching the paper's §II
// structure: Age → Disease with strong age-disease correlation.
func smallTable() *dataset.Table {
	sch := &dataset.Schema{
		QI:        []*dataset.Attribute{dataset.NewNumeric("Age", []float64{20, 25, 30, 60, 65, 70})},
		Sensitive: dataset.NewCategorical("Disease", []string{"Flu", "Emphysema"}),
	}
	tab := &dataset.Table{Schema: sch}
	// Young people have Flu, old people Emphysema.
	for i, age := range []int{0, 1, 2} {
		_ = i
		tab.Records = append(tab.Records, dataset.Record{QI: []int{age}, S: 0})
	}
	for _, age := range []int{3, 4, 5} {
		tab.Records = append(tab.Records, dataset.Record{QI: []int{age}, S: 1})
	}
	return tab
}

func TestEstimatorPriorsAreDistributions(t *testing.T) {
	tab := smallTable()
	est, err := NewEstimator(tab, nil, Epanechnikov{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0.1, 0.3, 0.5, 1} {
		priors, err := est.Priors(UniformBandwidth(1, b))
		if err != nil {
			t.Fatal(err)
		}
		if len(priors) != tab.N() {
			t.Fatalf("got %d priors for %d records", len(priors), tab.N())
		}
		for i, p := range priors {
			if err := p.Validate(); err != nil {
				t.Errorf("b=%g record %d: %v (%v)", b, i, err, p)
			}
		}
	}
}

func TestEstimatorLocality(t *testing.T) {
	// With a small bandwidth, a young tuple's prior must lean Flu and
	// an old tuple's must lean Emphysema.
	tab := smallTable()
	est, _ := NewEstimator(tab, nil, Epanechnikov{})
	priors, err := est.Priors(UniformBandwidth(1, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	if priors[0][0] <= priors[0][1] {
		t.Errorf("young tuple prior %v should lean Flu", priors[0])
	}
	if priors[5][1] <= priors[5][0] {
		t.Errorf("old tuple prior %v should lean Emphysema", priors[5])
	}
}

func TestEstimatorBandwidthSmoothing(t *testing.T) {
	// Larger bandwidths must pull priors toward the whole-table
	// distribution: the total variation to the table distribution
	// shrinks (weakly) as b grows.
	tab := smallTable()
	est, _ := NewEstimator(tab, nil, Epanechnikov{})
	whole := est.WholeTableDist()
	prev := math.Inf(1)
	for _, b := range []float64{0.2, 0.5, 1.0, 2.0} {
		priors, err := est.Priors(UniformBandwidth(1, b))
		if err != nil {
			t.Fatal(err)
		}
		avg := 0.0
		for _, p := range priors {
			avg += prob.TotalVariation(p, whole)
		}
		avg /= float64(len(priors))
		if avg > prev+1e-9 {
			t.Errorf("b=%g: average TV to whole %g grew from %g", b, avg, prev)
		}
		prev = avg
	}
}

func TestTClosenessAdversaryReduction(t *testing.T) {
	// §II-D: with the uniform kernel and bandwidth covering the whole
	// domain, the prior reduces to the whole-table distribution — the
	// t-closeness adversary.
	tab := smallTable()
	est, err := NewEstimator(tab, nil, Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	priors, err := est.Priors(UniformBandwidth(1, 1.0001))
	if err != nil {
		t.Fatal(err)
	}
	whole := est.WholeTableDist()
	for i, p := range priors {
		if !prob.Equal(p, whole, 1e-9) {
			t.Errorf("record %d prior %v != whole-table %v", i, p, whole)
		}
	}
}

func TestEstimatorSelfWeight(t *testing.T) {
	// A record's own one-hot contribution keeps its true value's prior
	// probability strictly positive at any bandwidth.
	tab := smallTable()
	est, _ := NewEstimator(tab, nil, Epanechnikov{})
	priors, _ := est.Priors(UniformBandwidth(1, 0.05))
	for i, rec := range tab.Records {
		if priors[i][rec.S] <= 0 {
			t.Errorf("record %d: prior of own value = %g", i, priors[i][rec.S])
		}
	}
}

func TestPriorAtOffDataPoint(t *testing.T) {
	// Domain value 40 has no records; under a tiny bandwidth every
	// kernel weight vanishes there, and the estimator must fall back to
	// the weakest consistent prior, the whole-table distribution.
	sch := &dataset.Schema{
		QI:        []*dataset.Attribute{dataset.NewNumeric("Age", []float64{20, 25, 30, 40, 60, 65, 70})},
		Sensitive: dataset.NewCategorical("Disease", []string{"Flu", "Emphysema"}),
	}
	tab := &dataset.Table{Schema: sch}
	for _, age := range []int{0, 1, 2} {
		tab.Records = append(tab.Records, dataset.Record{QI: []int{age}, S: 0})
	}
	for _, age := range []int{4, 5, 6} {
		tab.Records = append(tab.Records, dataset.Record{QI: []int{age}, S: 1})
	}
	est, _ := NewEstimator(tab, nil, Epanechnikov{})
	gap, _ := sch.QI[0].Index("40")
	p, err := est.PriorAt([]int{gap}, []float64{1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !prob.Equal(p, est.WholeTableDist(), 1e-12) {
		t.Errorf("off-data prior %v != whole-table %v", p, est.WholeTableDist())
	}
	// An on-data point under the same bandwidth is its own one-hot.
	q, err := est.PriorAt([]int{0}, []float64{1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 1 {
		t.Errorf("on-data tiny-bandwidth prior = %v, want one-hot Flu", q)
	}
}

func TestBandwidthValidation(t *testing.T) {
	tab := smallTable()
	est, _ := NewEstimator(tab, nil, Epanechnikov{})
	if _, err := est.Priors([]float64{0}); err == nil {
		t.Error("accepted zero bandwidth")
	}
	if _, err := est.Priors([]float64{-1}); err == nil {
		t.Error("accepted negative bandwidth")
	}
	if _, err := est.Priors([]float64{0.5, 0.5}); err == nil {
		t.Error("accepted wrong-arity bandwidth")
	}
}

// TestNewEstimatorRejectsZeroQI: a schema without QI attributes has no
// point to estimate a prior at, so construction fails instead of the
// first pass indexing an empty bandwidth.
func TestNewEstimatorRejectsZeroQI(t *testing.T) {
	sens := dataset.NewCategorical("Disease", []string{"Flu", "HIV"})
	tab := &dataset.Table{
		Schema:  &dataset.Schema{Sensitive: sens},
		Records: []dataset.Record{{S: 0}, {S: 1}},
	}
	if est, err := NewEstimator(tab, nil, Epanechnikov{}); err == nil {
		t.Fatalf("zero-QI table accepted (estimator %v)", est != nil)
	}
}

func TestUniformBandwidth(t *testing.T) {
	b := UniformBandwidth(3, 0.4)
	if len(b) != 3 || b[0] != 0.4 || b[2] != 0.4 {
		t.Errorf("UniformBandwidth = %v", b)
	}
}

func TestAttributeMatrixNumeric(t *testing.T) {
	a := dataset.NewNumeric("Age", []float64{0, 50, 100})
	m, err := AttributeMatrix(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][2] != 1 || m[0][1] != 0.5 || m[1][1] != 0 {
		t.Errorf("numeric matrix = %v", m)
	}
}

func TestAttributeMatrixCategoricalFlatDefault(t *testing.T) {
	a := dataset.NewCategorical("Sex", []string{"F", "M"})
	m, err := AttributeMatrix(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 1 || m[0][0] != 0 {
		t.Errorf("flat matrix = %v", m)
	}
}

func TestAttributeMatrixWithHierarchy(t *testing.T) {
	a := dataset.NewCategorical("Disease", []string{"Flu", "Emphysema", "Cancer"})
	h := hierarchy.MustNew(hierarchy.N("*",
		hierarchy.N("Respiratory", hierarchy.N("Flu"), hierarchy.N("Emphysema")),
		hierarchy.N("Other", hierarchy.N("Cancer")),
	))
	m, err := AttributeMatrix(a, h)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 0.5 || m[0][2] != 1 {
		t.Errorf("hierarchy matrix = %v", m)
	}
}

func TestWeightTable(t *testing.T) {
	m := [][]float64{{0, 1}, {1, 0}}
	w := WeightTable(Epanechnikov{}, m, 0.5)
	if w[0][0] != (Epanechnikov{}).Weight(0, 0.5) {
		t.Error("diagonal weight wrong")
	}
	if w[0][1] != 0 {
		t.Errorf("out-of-support weight = %g", w[0][1])
	}
}

func TestEstimatorDeterministicProperty(t *testing.T) {
	// Same table, same bandwidth → identical priors (pure function,
	// concurrency must not change results).
	tab := smallTable()
	est, _ := NewEstimator(tab, nil, Epanechnikov{})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 0.05 + rng.Float64()
		p1, err1 := est.Priors(UniformBandwidth(1, b))
		p2, err2 := est.Priors(UniformBandwidth(1, b))
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range p1 {
			if !prob.Equal(p1[i], p2[i], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
