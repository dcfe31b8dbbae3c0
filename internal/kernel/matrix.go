package kernel

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
)

// AttributeMatrix builds the semantic distance matrix M_i for an
// attribute (§II-C). Numeric attributes use |v_j − v_k| / R_i.
// Categorical attributes use h(LCA)/H from the supplied hierarchy; a
// nil hierarchy falls back to the flat hierarchy, under which any two
// distinct values are at distance 1.
func AttributeMatrix(a *dataset.Attribute, h *hierarchy.Hierarchy) ([][]float64, error) {
	r := a.Size()
	if a.Kind == dataset.Numeric {
		m := make([][]float64, r)
		for i := range m {
			m[i] = make([]float64, r)
			for j := range m[i] {
				m[i][j] = a.NormalizedDistance(i, j)
			}
		}
		return m, nil
	}
	if h == nil {
		h = hierarchy.Flat(a.Name, a.Values)
	}
	m, err := h.DistanceMatrix(a.Values)
	if err != nil {
		return nil, fmt.Errorf("kernel: distance matrix for %s: %w", a.Name, err)
	}
	return m, nil
}
