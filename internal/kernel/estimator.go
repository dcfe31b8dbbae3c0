package kernel

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

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
// d table lookups per pair over contiguous memory (see hotpath.go for
// the blocked iteration and lanes.go for the pass itself).
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
	// buckets[i] groups the packed profiles by their attribute-i value:
	// profiles with value v are buckets[i][bucketOff[i][v]:bucketOff[i][v+1]],
	// ascending. Candidate lists are assembled from these (hotpath.go);
	// for a single-value support — every categorical attribute under a
	// sub-sibling bandwidth — the bucket itself is the list, shared.
	buckets   [][]int32
	bucketOff [][]int32

	// pool recycles per-worker tile scratch across calls, so a pass
	// allocates only its weight tables, candidate lists and output.
	pool sync.Pool
}

// NewEstimator prepares an estimator for the table. hiers supplies
// generalization hierarchies for categorical attributes by name;
// attributes without one use the flat hierarchy.
func NewEstimator(t *dataset.Table, hiers map[string]*hierarchy.Hierarchy, k Func) (*Estimator, error) {
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
	e.buildBuckets()
	return e, nil
}

// buildBuckets fills the per-attribute value buckets with a counting
// sort, so each bucket lists its profiles in ascending order.
func (e *Estimator) buildBuckets() {
	pp := e.packed
	d, n := pp.D, pp.N
	e.buckets = make([][]int32, d)
	e.bucketOff = make([][]int32, d)
	for i := 0; i < d; i++ {
		r := len(e.Matrices[i])
		off := make([]int32, r+1)
		for u := 0; u < n; u++ {
			off[pp.QI[u*d+i]+1]++
		}
		for v := 0; v < r; v++ {
			off[v+1] += off[v]
		}
		bucket := make([]int32, n)
		cur := make([]int32, r)
		copy(cur, off[:r])
		for u := 0; u < n; u++ {
			v := pp.QI[u*d+i]
			bucket[cur[v]] = int32(u)
			cur[v]++
		}
		e.buckets[i] = bucket
		e.bucketOff[i] = off
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
// profile, on the flat cache-blocked pass (hotpath.go). Tiles fan out
// across the estimator's pool with each profile's Nadaraya–Watson sum
// self-contained, so the result is bit-identical at any worker count.
func (e *Estimator) ProfilePriors(b []float64) ([]prob.Dist, error) {
	return e.profilePriors(nil, b)
}

// profilePriors is ProfilePriors with a span: the table build and the
// blocked pass each record one stage observation. The weight tables
// and candidate lists live only for this pass — callers that revisit a
// bandwidth cache its priors instead (core.Engine).
func (e *Estimator) profilePriors(sp *obs.Span, b []float64) ([]prob.Dist, error) {
	if err := e.validateBandwidth(b); err != nil {
		return nil, err
	}
	ft := e.weightTables(sp, b)
	n, m := e.packed.N, e.packed.M
	psp := sp.Child(obs.StagePriors, "priors b="+BandwidthKey(b))
	psp.SetShape(obs.Shape{Profiles: n, Dims: e.packed.D, Lanes: 1})
	backing := make([]float64, n*m)
	e.priorPassLanes(ft, backing)
	psp.End()
	return sliceDists(backing, n, m), nil
}

// PriorsBatch is Priors over a bandwidth grid: out[k] is Priors(bvecs[k]),
// one lane pass per bandwidth.
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

// PriorAt estimates the prior at an arbitrary QI point q (value
// indexes), which need not occur in the table.
func (e *Estimator) PriorAt(q []int, b []float64) (prob.Dist, error) {
	if err := e.validateBandwidth(b); err != nil {
		return nil, err
	}
	return e.priorAtPoint(q, e.weightTables(nil, b)), nil
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
// table, the prior of the t-closeness adversary (§II-D).
func (e *Estimator) WholeTableDist() prob.Dist {
	return prob.FromCounts(e.Table.SensitiveCounts(nil))
}
