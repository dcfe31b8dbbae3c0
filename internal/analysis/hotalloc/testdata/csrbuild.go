package fixture

// This file models a compressed-sparse-row pair-weight build: a probe
// pass over per-row candidate lists that appends surviving (column,
// value) pairs into row-pointer/column-index/value arrays. Presizing
// all three arrays to the measured candidate total is exactly the
// shape hotalloc accepts; the grow-as-you-go variant is the regression
// the fixture pins.

// csrPrealloc builds the layout against a known candidate total:
// conforming — every append lands in presized capacity.
//
//detlint:hotpath
func csrPrealloc(lists [][]int32, vals []float64, total int) ([]int, []int32, []float64) {
	rowptr := make([]int, 1, len(lists)+1)
	colidx := make([]int32, 0, total)
	val := make([]float64, 0, total)
	for _, list := range lists {
		for _, u := range list {
			if w := vals[u]; w != 0 {
				colidx = append(colidx, u)
				val = append(val, w)
			}
		}
		rowptr = append(rowptr, len(colidx))
	}
	return rowptr, colidx, val
}

// csrGrow builds the same layout without measuring first: every
// surviving pair risks a reallocation inside the probe loop.
//
//detlint:hotpath
func csrGrow(lists [][]int32, vals []float64) ([]int32, []float64) {
	var colidx []int32
	var val []float64
	for _, list := range lists {
		for _, u := range list {
			if w := vals[u]; w != 0 {
				colidx = append(colidx, u) // want `append to "colidx" inside a hot loop with no visible preallocation`
				val = append(val, w)       // want `append to "val" inside a hot loop with no visible preallocation`
			}
		}
	}
	return colidx, val
}
