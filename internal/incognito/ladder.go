// Package incognito implements full-domain generalization with an
// Incognito-style bottom-up lattice search (LeFevre et al., SIGMOD
// 2005 — reference [34] of the paper). Where Mondrian partitions the
// data space locally, full-domain generalization recodes every value of
// an attribute to one chosen level of its generalization ladder; the
// search walks the lattice of level vectors from the bottom, prunes
// upward using the monotonicity of the privacy requirement, and returns
// the minimal-cost satisfying recoding.
package incognito

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// Ladder is one attribute's generalization ladder. Level 0 is the
// original domain; higher levels are coarser. Group[l][v] gives the
// level-l group id of domain value v; groups at every level are
// contiguous in domain-index order, so generalized equivalence classes
// render as ranges.
type Ladder struct {
	Attr   *dataset.Attribute
	Group  [][]int    // [level][valueIdx] -> group id
	Labels [][]string // [level][groupId] -> display label
}

// Levels returns the number of levels, including level 0.
func (l *Ladder) Levels() int { return len(l.Group) }

// NumericLadder builds a ladder for a numeric attribute from a list of
// band widths, one per level above 0 (ascending). Values are grouped
// into [min + k·w, min + (k+1)·w) bands; the final implicit level is
// the full range.
func NumericLadder(a *dataset.Attribute, widths []float64) (*Ladder, error) {
	if a.Kind != dataset.Numeric {
		return nil, fmt.Errorf("incognito: NumericLadder on categorical %s", a.Name)
	}
	l := &Ladder{Attr: a}
	// Level 0: identity.
	id := make([]int, a.Size())
	labels := make([]string, a.Size())
	for v := range id {
		id[v] = v
		labels[v] = a.Value(v)
	}
	l.Group = append(l.Group, id)
	l.Labels = append(l.Labels, labels)

	min := a.Nums[0]
	prev := 0.0
	for _, w := range widths {
		if w <= prev {
			return nil, fmt.Errorf("incognito: band widths must ascend, got %g after %g", w, prev)
		}
		prev = w
		g := make([]int, a.Size())
		var lb []string
		seen := map[int]int{}
		for v, x := range a.Nums {
			band := int((x - min) / w)
			gid, ok := seen[band]
			if !ok {
				gid = len(lb)
				seen[band] = gid
				lo := min + float64(band)*w
				lb = append(lb, fmt.Sprintf("[%g,%g)", lo, lo+w))
			}
			g[v] = gid
		}
		l.Group = append(l.Group, g)
		l.Labels = append(l.Labels, lb)
	}
	// Top level: everything.
	top := make([]int, a.Size())
	l.Group = append(l.Group, top)
	l.Labels = append(l.Labels, []string{"*"})
	return l, nil
}

// HierarchyLadder builds a ladder for a categorical attribute from its
// generalization hierarchy: level l groups leaves by their ancestor at
// depth H−l (level 0 = leaves, level H = root). The attribute's domain
// order must match the hierarchy's DFS leaf order for groups to be
// contiguous; this is validated.
func HierarchyLadder(a *dataset.Attribute, h *hierarchy.Hierarchy) (*Ladder, error) {
	if a.Kind != dataset.Categorical {
		return nil, fmt.Errorf("incognito: HierarchyLadder on numeric %s", a.Name)
	}
	l := &Ladder{Attr: a}
	height := h.Height()
	for level := 0; level <= height; level++ {
		g := make([]int, a.Size())
		var lb []string
		seen := map[*hierarchy.Node]int{}
		for v, val := range a.Values {
			leaf, ok := h.Leaf(val)
			if !ok {
				return nil, fmt.Errorf("incognito: value %q of %s missing from hierarchy", val, a.Name)
			}
			anc := leaf
			for anc.Depth() > height-level {
				anc = anc.Parent()
			}
			gid, ok := seen[anc]
			if !ok {
				gid = len(lb)
				seen[anc] = gid
				lb = append(lb, anc.Label)
			} else if gid != len(lb)-1 {
				return nil, fmt.Errorf("incognito: domain order of %s does not follow hierarchy DFS order (value %q)", a.Name, val)
			}
			g[v] = gid
		}
		l.Group = append(l.Group, g)
		l.Labels = append(l.Labels, lb)
	}
	return l, nil
}

// FlatLadder builds the two-level ladder (identity, *) for attributes
// without structure.
func FlatLadder(a *dataset.Attribute) *Ladder {
	l := &Ladder{Attr: a}
	id := make([]int, a.Size())
	labels := make([]string, a.Size())
	for v := range id {
		id[v] = v
		labels[v] = a.Value(v)
	}
	l.Group = append(l.Group, id, make([]int, a.Size()))
	l.Labels = append(l.Labels, labels, []string{"*"})
	return l
}

// Ladders builds the default generalization ladders for any schema:
// numeric attributes get 5-, 10-, 20-, 40-unit bands (plus identity
// and *), categorical attributes with a hierarchy get its level cuts,
// and the rest fall back to the two-level flat ladder. This is the
// schema-generic construction the engine's Incognito dispatch uses;
// the Adult schema is just one instantiation.
func Ladders(sch *dataset.Schema, hiers map[string]*hierarchy.Hierarchy) ([]*Ladder, error) {
	out := make([]*Ladder, len(sch.QI))
	for i, a := range sch.QI {
		var err error
		switch {
		case a.Kind == dataset.Numeric:
			out[i], err = NumericLadder(a, []float64{5, 10, 20, 40})
		case hiers[a.Name] != nil:
			out[i], err = HierarchyLadder(a, hiers[a.Name])
		default:
			out[i] = FlatLadder(a)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
