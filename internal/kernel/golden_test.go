package kernel

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adult"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/prob"
	"repro/internal/schema"
)

// referencePriors is the pre-flattening implementation, kept verbatim
// as the golden oracle: per-attribute [][][]float64 weight tables,
// pointer-chasing over []*dataset.Profile, and the exact accumulation
// order (attribute-ordered product with early break, row-ordered
// denominator and histogram sums, final division). The flat
// cache-blocked pass must reproduce it bit for bit.
func referencePriors(e *Estimator, b []float64) []prob.Dist {
	weights := make([][][]float64, len(e.Matrices))
	for i, m := range e.Matrices {
		weights[i] = WeightTable(e.Kernel, m, b[i])
	}
	m := e.Table.Schema.M()
	out := make([]prob.Dist, len(e.profiles))
	for pi, p := range e.profiles {
		acc := make(prob.Dist, m)
		denom := 0.0
		d := len(p.QI)
		for _, u := range e.profiles {
			w := float64(u.Weight())
			for i := 0; i < d; i++ {
				w *= weights[i][p.QI[i]][u.QI[i]]
				if w == 0 {
					break
				}
			}
			if w == 0 {
				continue
			}
			denom += w
			scale := w / float64(u.Weight())
			for si, c := range u.Counts {
				if c != 0 {
					acc[si] += scale * float64(c)
				}
			}
		}
		if denom == 0 {
			out[pi] = prob.FromCounts(e.Table.SensitiveCounts(nil))
			continue
		}
		for i := range acc {
			acc[i] /= denom
		}
		out[pi] = acc
	}
	return out
}

// goldenCompare pins ProfilePriors against the reference implementation
// over a bandwidth grid, requiring exact (bitwise) float equality. The
// grid runs from the sparse regime (b' = 0.02, 0.05: few surviving
// pairs per candidate list) to the dense one.
func goldenCompare(t *testing.T, tab *dataset.Table, hiers map[string]*hierarchy.Hierarchy, label string) {
	t.Helper()
	for _, workers := range []int{-1, 0} {
		e, err := NewEstimator(tab, hiers, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Workers = workers
		for _, bw := range []float64{0.02, 0.05, 0.1, 0.3, 0.5, 1} {
			b := UniformBandwidth(tab.Schema.D(), bw)
			want := referencePriors(e, b)
			got, err := e.ProfilePriors(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s b=%g: %d profiles, reference has %d", label, bw, len(got), len(want))
			}
			for pi := range got {
				for si, v := range got[pi] {
					if v != want[pi][si] {
						t.Fatalf("%s b=%g workers=%d profile %d component %d: flat %v != reference %v",
							label, bw, workers, pi, si, v, want[pi][si])
					}
				}
			}
		}
	}
}

// TestGoldenPriorsAdult pins the flat pass to the pre-refactor
// implementation on the Adult schema.
func TestGoldenPriorsAdult(t *testing.T) {
	goldenCompare(t, adult.Generate(400, 7), adult.Hierarchies(), "adult")
}

// TestGoldenPriorsHospital pins the flat pass on the hospital example
// schema (the paper's §I scenario), whose categorical hierarchies and
// domain sizes differ from Adult's.
func TestGoldenPriorsHospital(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "schemas", "hospital.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := schema.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := schema.Synthesize(spec, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, tab, spec.Hierarchies(), "hospital")
}

// TestGoldenPriorAt pins the arbitrary-point estimate: PriorAt must
// match the reference loop run over a one-off profile.
func TestGoldenPriorAt(t *testing.T) {
	tab := adult.Generate(200, 7)
	e, err := NewEstimator(tab, adult.Hierarchies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := UniformBandwidth(tab.Schema.D(), 0.25)
	q := make([]int, tab.Schema.D()) // all-zeros point, present or not
	got, err := e.PriorAt(q, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: run the old loop with a synthetic profile at q.
	ref := referencePriorsAt(e, q, b)
	for si, v := range got {
		if v != ref[si] {
			t.Fatalf("component %d: PriorAt %v != reference %v", si, v, ref[si])
		}
	}
}

// referencePriorsAt is the pre-refactor PriorAt arithmetic.
func referencePriorsAt(e *Estimator, q []int, b []float64) prob.Dist {
	weights := make([][][]float64, len(e.Matrices))
	for i, m := range e.Matrices {
		weights[i] = WeightTable(e.Kernel, m, b[i])
	}
	m := e.Table.Schema.M()
	acc := make(prob.Dist, m)
	denom := 0.0
	for _, u := range e.profiles {
		w := float64(u.Weight())
		for i := range q {
			w *= weights[i][q[i]][u.QI[i]]
			if w == 0 {
				break
			}
		}
		if w == 0 {
			continue
		}
		denom += w
		scale := w / float64(u.Weight())
		for si, c := range u.Counts {
			if c != 0 {
				acc[si] += scale * float64(c)
			}
		}
	}
	if denom == 0 {
		return prob.FromCounts(e.Table.SensitiveCounts(nil))
	}
	for i := range acc {
		acc[i] /= denom
	}
	return acc
}
