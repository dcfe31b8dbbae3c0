// Package anonymize models the output of an anonymization algorithm:
// a partition of the table into groups, each with a QI extent (the
// generalized region covering its records) and the multiset of
// sensitive values. Both generalization and bucketization publish this
// structure; under the paper's threat model — the adversary knows who
// is in the table and their QI values (§III-A) — the two are
// equivalent, and all privacy analysis runs on groups.
package anonymize

import (
	"fmt"

	"repro/internal/dataset"
)

// Extent is the generalized region of one group: an inclusive range of
// domain indexes per QI attribute. Numeric attributes render as
// [lo, hi] intervals; categorical attributes as value sets (or a single
// value when lo == hi).
type Extent struct {
	Lo, Hi []int
}

// NewExtent returns the extent covering the given records.
func NewExtent(t *dataset.Table, rows []int) Extent {
	d := t.Schema.D()
	e := Extent{Lo: make([]int, d), Hi: make([]int, d)}
	for i := 0; i < d; i++ {
		e.Lo[i] = t.Schema.QI[i].Size()
		e.Hi[i] = -1
	}
	for _, ri := range rows {
		for i, v := range t.Records[ri].QI {
			if v < e.Lo[i] {
				e.Lo[i] = v
			}
			if v > e.Hi[i] {
				e.Hi[i] = v
			}
		}
	}
	return e
}

// Contains reports whether the QI point q lies inside the extent.
func (e Extent) Contains(q []int) bool {
	for i := range q {
		if q[i] < e.Lo[i] || q[i] > e.Hi[i] {
			return false
		}
	}
	return true
}

// NormalizedSpan returns the extent's width on attribute i as a
// fraction of the attribute's full range: the NCP term of that
// attribute (numeric uses value span, categorical uses index span).
func (e Extent) NormalizedSpan(a *dataset.Attribute, i int) float64 {
	r := a.Range()
	if r == 0 {
		return 0
	}
	if a.Kind == dataset.Numeric {
		return (a.Num(e.Hi[i]) - a.Num(e.Lo[i])) / r
	}
	return float64(e.Hi[i]-e.Lo[i]) / r
}

// Format renders the extent's attribute i for display: "v" when the
// extent is a point, "[lo,hi]" for numeric ranges, "{a,…,b}" style
// interval for categorical.
func (e Extent) Format(a *dataset.Attribute, i int) string {
	if e.Lo[i] == e.Hi[i] {
		return a.Value(e.Lo[i])
	}
	if a.Kind == dataset.Numeric {
		return fmt.Sprintf("[%s,%s]", a.Value(e.Lo[i]), a.Value(e.Hi[i]))
	}
	if e.Lo[i] == 0 && e.Hi[i] == a.Size()-1 {
		return "*"
	}
	return fmt.Sprintf("{%s..%s}", a.Value(e.Lo[i]), a.Value(e.Hi[i]))
}

// Group is one anonymized equivalence class.
type Group struct {
	Rows   []int // record indexes into the source table
	Extent Extent
}

// Size returns the number of records in the group.
func (g *Group) Size() int { return len(g.Rows) }

// Result is an anonymized table: the source plus its group partition.
type Result struct {
	Table  *dataset.Table
	Groups []*Group
	// Algorithm and Requirement describe how the result was produced.
	Algorithm   string
	Requirement string
}

// Validate checks the partition invariants: groups are disjoint, cover
// the table, and every extent contains its records.
func (r *Result) Validate() error {
	seen := make([]bool, r.Table.N())
	for gi, g := range r.Groups {
		if g.Size() == 0 {
			return fmt.Errorf("anonymize: group %d is empty", gi)
		}
		for _, ri := range g.Rows {
			if ri < 0 || ri >= r.Table.N() {
				return fmt.Errorf("anonymize: group %d references record %d outside table", gi, ri)
			}
			if seen[ri] {
				return fmt.Errorf("anonymize: record %d appears in two groups", ri)
			}
			seen[ri] = true
			if !g.Extent.Contains(r.Table.Records[ri].QI) {
				return fmt.Errorf("anonymize: record %d outside extent of group %d", ri, gi)
			}
		}
	}
	for ri, ok := range seen {
		if !ok {
			return fmt.Errorf("anonymize: record %d not covered by any group", ri)
		}
	}
	return nil
}

// SensitiveCounts returns the group's sensitive histogram.
func (r *Result) SensitiveCounts(g *Group) []int {
	return r.Table.SensitiveCounts(g.Rows)
}

// Render writes the generalized table in the style of the paper's
// Table I(b): one line per record, QI attributes replaced by their
// group extent, sensitive value in the clear. Records appear grouped.
// It is RenderWith without hierarchies.
func (r *Result) Render() string {
	return r.RenderWith(nil)
}
