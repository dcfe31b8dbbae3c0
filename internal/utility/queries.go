package utility

import (
	"math"
	"math/rand"

	"repro/internal/anonymize"
	"repro/internal/dataset"
)

// Query is a COUNT(*) aggregate over qd randomly chosen QI attributes
// plus a sensitive-value predicate, the workload form of LeFevre et
// al.'s workload-aware evaluation used for Figure 6:
//
//	SELECT COUNT(*) FROM T
//	WHERE A_{i1} ∈ R_1 AND … AND A_{iqd} ∈ R_qd AND S ∈ Vs
//
// Ranges are inclusive index intervals over attribute domains.
type Query struct {
	Attrs  []int        // QI attribute indexes constrained by the query
	Lo, Hi []int        // inclusive domain-index range per constrained attribute
	SVals  map[int]bool // accepted sensitive values
}

// Matches reports whether a record satisfies the query.
func (q *Query) Matches(rec dataset.Record) bool {
	for i, ai := range q.Attrs {
		v := rec.QI[ai]
		if v < q.Lo[i] || v > q.Hi[i] {
			return false
		}
	}
	return q.SVals[rec.S]
}

// TrueCount evaluates the query against the original microdata.
func (q *Query) TrueCount(t *dataset.Table) int {
	n := 0
	for _, rec := range t.Records {
		if q.Matches(rec) {
			n++
		}
	}
	return n
}

// EstimateCount evaluates the query against an anonymized table using
// the uniform-spread assumption: each group contributes its matching
// sensitive count scaled by the fraction of the group's extent volume
// that intersects the query ranges.
func (q *Query) EstimateCount(r *anonymize.Result) float64 {
	est := 0.0
	for _, g := range r.Groups {
		frac := 1.0
		for i, ai := range q.Attrs {
			a := r.Table.Schema.QI[ai]
			frac *= overlapFraction(a, g.Extent.Lo[ai], g.Extent.Hi[ai], q.Lo[i], q.Hi[i])
			if frac == 0 {
				break
			}
		}
		if frac == 0 {
			continue
		}
		matched := 0
		for _, ri := range g.Rows {
			if q.SVals[r.Table.Records[ri].S] {
				matched++
			}
		}
		est += frac * float64(matched)
	}
	return est
}

// overlapFraction returns the fraction of the group's extent [glo,ghi]
// covered by the query range [qlo,qhi] on an attribute, measuring
// numeric attributes in value space and categorical ones in index
// space.
func overlapFraction(a *dataset.Attribute, glo, ghi, qlo, qhi int) float64 {
	lo := max(glo, qlo)
	hi := min(ghi, qhi)
	if lo > hi {
		return 0
	}
	if glo == ghi {
		return 1 // point extent inside the query
	}
	if a.Kind == dataset.Numeric {
		span := a.Num(ghi) - a.Num(glo)
		if span == 0 {
			return 1
		}
		// Treat each domain value as the center of a unit cell so a
		// query covering part of the extent gets proportional credit.
		return (a.Num(hi) - a.Num(lo) + cellWidth(a)) / (span + cellWidth(a))
	}
	return float64(hi-lo+1) / float64(ghi-glo+1)
}

// cellWidth approximates the granularity of a numeric domain as the
// average gap between adjacent values.
func cellWidth(a *dataset.Attribute) float64 {
	if a.Size() <= 1 {
		return 1
	}
	return a.Range() / float64(a.Size()-1)
}

// Workload generates and evaluates random COUNT queries.
type Workload struct {
	// QD is the number of QI attributes each query constrains.
	QD int
	// Sel is the expected selectivity: each constrained QI attribute's
	// range covers sel^(1/qd) of its domain, so on a uniform table the
	// QI predicate alone selects ≈ sel·N records; the sensitive
	// predicate accepts half the sensitive domain independently of qd
	// and sel, following the workload design of the aggregate-query
	// evaluations the paper cites (LeFevre et al., Xiao & Tao).
	Sel float64
	// Queries is the number of queries to sample.
	Queries int
	// Rng drives query sampling; required.
	Rng *rand.Rand
}

// Generate samples one random query against the schema.
func (w *Workload) Generate(sch *dataset.Schema) *Query {
	d := sch.D()
	qd := w.QD
	if qd > d {
		qd = d
	}
	perm := w.Rng.Perm(d)[:qd]
	q := &Query{Attrs: perm, Lo: make([]int, qd), Hi: make([]int, qd), SVals: map[int]bool{}}
	// Per-attribute coverage so the product of QI factors ≈ Sel.
	cover := math.Pow(w.Sel, 1/float64(qd))
	for i, ai := range perm {
		size := sch.QI[ai].Size()
		span := int(math.Ceil(cover * float64(size)))
		if span < 1 {
			span = 1
		}
		if span > size {
			span = size
		}
		lo := 0
		if size-span > 0 {
			lo = w.Rng.Intn(size - span + 1)
		}
		q.Lo[i] = lo
		q.Hi[i] = lo + span - 1
	}
	m := sch.M()
	sCount := (m + 1) / 2
	for _, s := range w.Rng.Perm(m)[:sCount] {
		q.SVals[s] = true
	}
	return q
}

// RelativeError runs the workload against the anonymized result and
// returns the average relative error |est − act| / act over queries
// with non-zero true count. Queries with zero true count are skipped,
// following the standard evaluation protocol.
func (w *Workload) RelativeError(r *anonymize.Result) float64 {
	sum, n := 0.0, 0
	for i := 0; i < w.Queries; i++ {
		q := w.Generate(r.Table.Schema)
		act := q.TrueCount(r.Table)
		if act == 0 {
			continue
		}
		est := q.EstimateCount(r)
		sum += math.Abs(est-float64(act)) / float64(act)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
