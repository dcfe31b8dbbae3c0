package distance

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/prob"
)

// §IV-B.1's desiderata as executable checks, plus two further
// classical measures (Hellinger, total variation) so the conformance
// table covers the standard toolbox. The paper's argument — KL fails
// zero-probability definability, JS fails semantic awareness, EMD
// fails probability scaling, and only kernel-smoothed JS satisfies all
// five — becomes a table computed by Conformance and asserted below.

// Hellinger returns the Hellinger distance
// H(P,Q) = (1/√2)·‖√P − √Q‖₂ ∈ [0,1]; well-defined with zeros and a
// true metric, but semantics-blind.
func Hellinger(p, q prob.Dist) float64 {
	if len(p) != len(q) {
		panic("distance: Hellinger over different domains")
	}
	s := 0.0
	for i := range p {
		d := math.Sqrt(p[i]) - math.Sqrt(q[i])
		s += d * d
	}
	return math.Sqrt(s / 2)
}

// HellingerMeasure wraps Hellinger as a Measure.
func HellingerMeasure() Measure {
	return MeasureFunc{F: Hellinger, ID: "Hellinger"}
}

// TVMeasure wraps total variation distance as a Measure.
func TVMeasure() Measure {
	return MeasureFunc{F: prob.TotalVariation, ID: "TV"}
}

// Desideratum identifies one of §IV-B.1's five properties.
type Desideratum int

const (
	// Identity: D[P,P] = 0.
	Identity Desideratum = iota
	// NonNegativity: D[P,Q] ≥ 0.
	NonNegativity
	// ProbabilityScaling: a γ gain on a small probability outweighs the
	// same γ gain on a moderate one.
	ProbabilityScaling
	// ZeroProbabilityDefinability: D stays finite with zeros in P or Q.
	ZeroProbabilityDefinability
	// SemanticAwareness: belief moving to a semantically close value
	// costs less than moving to a distant one.
	SemanticAwareness
)

// String names the desideratum.
func (d Desideratum) String() string {
	switch d {
	case Identity:
		return "identity"
	case NonNegativity:
		return "non-negativity"
	case ProbabilityScaling:
		return "probability-scaling"
	case ZeroProbabilityDefinability:
		return "zero-probability"
	case SemanticAwareness:
		return "semantic-awareness"
	default:
		return "unknown"
	}
}

// AllDesiderata lists the five properties in the paper's order.
func AllDesiderata() []Desideratum {
	return []Desideratum{Identity, NonNegativity, ProbabilityScaling,
		ZeroProbabilityDefinability, SemanticAwareness}
}

// Conformance checks a measure against one desideratum using the
// paper's own witness distributions over a 4-value domain whose
// semantic structure is two sibling pairs ({0,1} and {2,3}, sibling
// distance 0.5, cross-pair distance 1). Probes are deterministic; a
// false result exhibits a concrete counterexample, not a proof of
// general failure — exactly how §IV-B argues.
func Conformance(m Measure, d Desideratum) bool {
	u := prob.Dist{0.25, 0.25, 0.25, 0.25}
	v := prob.Dist{0.4, 0.3, 0.2, 0.1}
	switch d {
	case Identity:
		return m.Distance(u, u) == 0 && m.Distance(v, v) == 0
	case NonNegativity:
		probes := []prob.Dist{u, v, {1, 0, 0, 0}, {0, 0, 0.5, 0.5}}
		for _, p := range probes {
			for _, q := range probes {
				got := m.Distance(p, q)
				if got < 0 || math.IsNaN(got) {
					return false
				}
			}
		}
		return true
	case ProbabilityScaling:
		// §IV-B.1's witness: 0.01→0.11 must count strictly more than
		// 0.4→0.5 (both are +0.1 on the first component).
		small := m.Distance(prob.Dist{0.01, 0.99, 0, 0}, prob.Dist{0.11, 0.89, 0, 0})
		large := m.Distance(prob.Dist{0.4, 0.6, 0, 0}, prob.Dist{0.5, 0.5, 0, 0})
		return small > large+1e-9
	case ZeroProbabilityDefinability:
		got := m.Distance(prob.Dist{0.5, 0.5, 0, 0}, prob.Dist{1, 0, 0, 0})
		if math.IsInf(got, 0) || math.IsNaN(got) {
			return false
		}
		got = m.Distance(prob.Dist{1, 0, 0, 0}, prob.Dist{0, 0, 0, 1})
		return !math.IsInf(got, 0) && !math.IsNaN(got)
	case SemanticAwareness:
		// §IV-B.1's salary example recast: mass moving to the sibling
		// value must cost strictly less than moving to a distant one.
		base := prob.Dist{1, 0, 0, 0}
		near := prob.Dist{0, 1, 0, 0}
		far := prob.Dist{0, 0, 1, 0}
		return m.Distance(base, near) < m.Distance(base, far)
	default:
		return false
	}
}

// ConformanceTable evaluates a measure against all five desiderata.
func ConformanceTable(m Measure) map[Desideratum]bool {
	out := make(map[Desideratum]bool, 5)
	for _, d := range AllDesiderata() {
		out[d] = Conformance(m, d)
	}
	return out
}

// TestPaperConformanceTable asserts the §IV-B argument as a table:
// which desiderata each measure satisfies on the paper's witnesses.
func TestPaperConformanceTable(t *testing.T) {
	smoothed := NewSmoothedJS(sensMatrix, kernel.Epanechnikov{}, 0.6)
	cases := []struct {
		m    Measure
		want map[Desideratum]bool
	}{
		{KLMeasure(), map[Desideratum]bool{
			Identity:                    true,
			NonNegativity:               true, // Gibbs: KL ≥ 0 (may be +Inf)
			ProbabilityScaling:          true,
			ZeroProbabilityDefinability: false, // the paper's §IV-B complaint
			SemanticAwareness:           false,
		}},
		{JSMeasure(), map[Desideratum]bool{
			Identity:                    true,
			NonNegativity:               true,
			ProbabilityScaling:          true,
			ZeroProbabilityDefinability: true,
			SemanticAwareness:           false, // the paper's §IV-B complaint
		}},
		{EMDMeasure(sensMatrix), map[Desideratum]bool{
			Identity:                    true,
			NonNegativity:               true,
			ProbabilityScaling:          false, // the paper's §IV-B complaint
			ZeroProbabilityDefinability: true,
			SemanticAwareness:           true,
		}},
		{smoothed, map[Desideratum]bool{
			Identity:                    true,
			NonNegativity:               true,
			ProbabilityScaling:          true,
			ZeroProbabilityDefinability: true,
			SemanticAwareness:           true, // all five — the paper's measure
		}},
	}
	for _, c := range cases {
		got := ConformanceTable(c.m)
		for _, d := range AllDesiderata() {
			if got[d] != c.want[d] {
				t.Errorf("%s / %s = %v, want %v", c.m.Name(), d, got[d], c.want[d])
			}
		}
	}
}

func TestHellingerBasics(t *testing.T) {
	// Metric sanity plus conformance: Hellinger is zero-probability
	// safe but semantics-blind.
	m := HellingerMeasure()
	if !Conformance(m, Identity) || !Conformance(m, NonNegativity) ||
		!Conformance(m, ZeroProbabilityDefinability) {
		t.Error("Hellinger fails basic desiderata")
	}
	if Conformance(m, SemanticAwareness) {
		t.Error("Hellinger should be semantics-blind")
	}
	if d := Hellinger([]float64{1, 0}, []float64{0, 1}); d != 1 {
		t.Errorf("Hellinger of disjoint = %g, want 1", d)
	}
}

func TestTVMeasureConformance(t *testing.T) {
	m := TVMeasure()
	if !Conformance(m, Identity) || !Conformance(m, NonNegativity) ||
		!Conformance(m, ZeroProbabilityDefinability) {
		t.Error("TV fails basic desiderata")
	}
	// TV, like EMD with flat ground distance, has no probability
	// scaling: both witnesses move exactly 0.1 of mass.
	if Conformance(m, ProbabilityScaling) {
		t.Error("TV should lack probability scaling")
	}
}

func TestDesideratumStrings(t *testing.T) {
	if len(AllDesiderata()) != 5 {
		t.Fatal("the paper lists exactly five desiderata")
	}
	for _, d := range AllDesiderata() {
		if d.String() == "unknown" {
			t.Errorf("missing name for desideratum %d", int(d))
		}
	}
}
