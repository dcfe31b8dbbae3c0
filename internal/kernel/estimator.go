package kernel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/prob"
)

// Estimator computes the adversary's prior belief function from the
// table to be released, following §II-B/C: the prior for a QI point q
// is the Nadaraya–Watson weighted average of the one-hot sensitive
// distributions of all tuples, with a product kernel over the d QI
// attributes,
//
//	P̂pri(q) = Σ_t P(t) Π_i K_i(q_i − t[A_i]) / Σ_t Π_i K_i(q_i − t[A_i]).
//
// Identical QI profiles are deduplicated and packed once into a
// struct-of-arrays layout, and the per-attribute kernel weights are
// precomputed into flat stride-indexed tables, so the inner loop is
// d table lookups per pair over contiguous memory, visited only where
// the pair's support bitmaps intersect (hotpath.go).
type Estimator struct {
	Kernel   Func
	Table    *dataset.Table
	Matrices [][][]float64 // per QI attribute: domain×domain distances

	// Workers bounds the pool computing per-profile priors, under the
	// parallel package convention (0 = all cores, negative =
	// sequential). Output is identical at any setting.
	Workers int

	profiles []*dataset.Profile
	packed   *dataset.PackedProfiles
	// whole is the whole-table sensitive distribution — the fallback
	// prior where every kernel weight vanishes.
	whole prob.Dist
	// values holds one bitmap of words uint64s per (attribute, value),
	// row rows[i]+v for value v of attribute i: bit u is set when
	// packed profile u has that value. Each pass ORs them into its
	// support bitmaps (hotpath.go).
	values []uint64
	rows   []int
	words  int
}

// NewEstimator prepares an estimator for the table. hiers supplies
// generalization hierarchies for categorical attributes by name;
// attributes without one use the flat hierarchy. A schema without QI
// attributes is refused: the prior is a function of the QI point.
func NewEstimator(t *dataset.Table, hiers map[string]*hierarchy.Hierarchy, k Func) (*Estimator, error) {
	if t.Schema.D() == 0 {
		return nil, errors.New("kernel: schema has no QI attributes")
	}
	if k == nil {
		k = Epanechnikov{}
	}
	e := &Estimator{Kernel: k, Table: t}
	e.Matrices = make([][][]float64, t.Schema.D())
	for i, a := range t.Schema.QI {
		m, err := AttributeMatrix(a, hiers[a.Name])
		if err != nil {
			return nil, err
		}
		e.Matrices[i] = m
	}
	e.profiles = t.Profiles()
	e.packed = dataset.Pack(e.profiles, t.Schema.D(), t.Schema.M())
	e.whole = prob.FromCounts(t.SensitiveCounts(nil))
	e.indexValues()
	return e, nil
}

// indexValues builds the value bitmaps from the packed QI columns.
func (e *Estimator) indexValues() {
	pp := e.packed
	d := pp.D
	e.words = (pp.N + 63) / 64
	e.rows = make([]int, d+1)
	for i, m := range e.Matrices {
		e.rows[i+1] = e.rows[i] + len(m)
	}
	e.values = make([]uint64, e.rows[d]*e.words)
	for u := 0; u < pp.N; u++ {
		for i := 0; i < d; i++ {
			r := e.rows[i] + int(pp.QI[u*d+i])
			e.values[r*e.words+u/64] |= 1 << (u % 64)
		}
	}
}

// Profiles exposes the deduplicated QI profiles the estimator runs on.
func (e *Estimator) Profiles() []*dataset.Profile { return e.profiles }

// validateBandwidth checks a bandwidth vector against the schema.
func (e *Estimator) validateBandwidth(b []float64) error {
	if len(b) != e.Table.Schema.D() {
		return fmt.Errorf("kernel: bandwidth has %d components, schema has %d QI attributes", len(b), e.Table.Schema.D())
	}
	for i, bi := range b {
		if bi <= 0 {
			return fmt.Errorf("kernel: bandwidth B%d = %g must be positive", i+1, bi)
		}
	}
	return nil
}

// UniformBandwidth returns the d-vector (b, b, ..., b), the B' = (b',..)
// parameterization used throughout the paper's experiments.
func UniformBandwidth(d int, b float64) []float64 {
	out := make([]float64, d)
	for i := range out {
		out[i] = b
	}
	return out
}

// Priors estimates the prior belief distribution for every record in
// the table under bandwidth vector b. The result is indexed by record.
func (e *Estimator) Priors(b []float64) ([]prob.Dist, error) {
	return e.PriorsSpan(nil, b)
}

// PriorsSpan is Priors recording its weight-table build and prior pass
// as stage spans under sp — the serving layer's traced entry point. A
// nil span is a free no-op, so Priors simply delegates.
func (e *Estimator) PriorsSpan(sp *obs.Span, b []float64) ([]prob.Dist, error) {
	perProfile, err := e.profilePriors(sp, b)
	if err != nil {
		return nil, err
	}
	return e.expand(perProfile), nil
}

// expand maps per-profile priors onto the table's records.
func (e *Estimator) expand(perProfile []prob.Dist) []prob.Dist {
	out := make([]prob.Dist, e.Table.N())
	for pi, p := range e.profiles {
		for _, row := range p.Rows {
			out[row] = perProfile[pi]
		}
	}
	return out
}

// ProfilePriors estimates one prior distribution per distinct QI
// profile, on the support-intersection pass (hotpath.go). Query
// profiles fan out across the estimator's pool with each profile's
// Nadaraya–Watson sum self-contained, so the result is bit-identical
// at any worker count.
func (e *Estimator) ProfilePriors(b []float64) ([]prob.Dist, error) {
	return e.profilePriors(nil, b)
}

// profilePriors is ProfilePriors with a span: the table build and the
// prior pass each record one stage observation. The weight tables
// and support bitmaps live only for this pass — callers that revisit a
// bandwidth cache its priors instead (core.Engine).
func (e *Estimator) profilePriors(sp *obs.Span, b []float64) ([]prob.Dist, error) {
	if err := e.validateBandwidth(b); err != nil {
		return nil, err
	}
	ft := e.weightTables(sp, b)
	n, m := e.packed.N, e.packed.M
	psp := sp.Child(obs.StagePriors, "priors b="+BandwidthKey(b))
	psp.SetShape(obs.Shape{Profiles: n, Dims: e.packed.D})
	backing := make([]float64, n*m)
	e.priorPass(ft, backing)
	psp.End()
	return sliceDists(backing, n, m), nil
}

// PriorsBatch is Priors over a bandwidth grid: out[k] is Priors(bvecs[k]),
// one prior pass per bandwidth.
func (e *Estimator) PriorsBatch(bvecs [][]float64) ([][]prob.Dist, error) {
	out := make([][]prob.Dist, len(bvecs))
	for k, b := range bvecs {
		priors, err := e.Priors(b)
		if err != nil {
			return nil, err
		}
		out[k] = priors
	}
	return out, nil
}

// BandwidthKey renders a bandwidth vector canonically: the engine's
// prior-cache key and the label of the kernel spans.
func BandwidthKey(b []float64) string {
	parts := make([]string, len(b))
	for i, x := range b {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// weightTables builds the flat weight tables for a bandwidth vector,
// recording the build as one kernel_table stage span under sp.
func (e *Estimator) weightTables(sp *obs.Span, b []float64) *flatTables {
	tsp := sp.Child(obs.StageKernelTable, "kernel-table b="+BandwidthKey(b))
	tsp.SetShape(obs.Shape{Profiles: e.packed.N, Dims: e.packed.D})
	ft := e.buildFlat(b)
	tsp.End()
	return ft
}

// WholeTableDist returns the sensitive distribution of the entire
// table, the prior of the t-closeness adversary (§II-D). It is the
// estimator's own copy, shared with every caller: read it, never
// modify it.
func (e *Estimator) WholeTableDist() prob.Dist {
	return e.whole
}
