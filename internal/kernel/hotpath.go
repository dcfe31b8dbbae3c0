// The whole file is the kernel's allocation-audited region: hotalloc
// flags per-iteration allocation in every function here.
//
//detlint:hotpath
package kernel

import (
	"repro/internal/dataset"
	"repro/internal/prob"
)

// The Nadaraya–Watson pass is the framework's dominant cost (the
// paper's Figure 4(b)): O(profiles² · d) kernel products plus an
// O(profiles² · m) accumulation. This file holds the flat layout that
// pass runs on. The profile set is packed once into a struct-of-arrays
// layout (dataset.PackedProfiles) and the per-attribute weight tables
// are flattened into one stride-indexed vector, so the inner loop is
// sequential loads and d multiplies with no pointer chasing; and
// compact-support kernels zero most pair weights, so each pass indexes
// its weight table's candidates — the profiles with a nonzero weight
// against each query value — and every query profile streams only the
// candidates of its most selective attribute instead of testing all n
// pairs.
//
// Skipping a pair whose product is provably zero does not touch the
// arithmetic, and per-profile accumulation order is fixed — candidate
// lists are ascending, so profile u still runs in increasing order for
// every query profile p regardless of worker count. The results are
// therefore bit-identical to the sequential, pre-flattening
// implementation (pinned by golden_test.go).

// pTile is the number of query profiles one parallel.For task owns.
const pTile = 64

// flatTables is one bandwidth's weight-table set, flattened: attribute
// i's table occupies w[off[i] : off[i]+stride[i]²] row-major, so the
// weight for query value v against data value u is
// w[off[i] + v·stride[i] + u].
type flatTables struct {
	w      []float64
	off    []int
	stride []int
}

// candSet holds the candidate lists the pass iterates instead of all n
// pairs: for each query profile, the ascending profile indexes whose
// weight on the profile's most selective attribute is nonzero — any
// pair outside that list has a zero product. Only the lists of winning
// (attribute, value) pairs are materialized, and a value whose support
// is a single partner value — every categorical attribute under a
// sub-sibling bandwidth — shares its estimator bucket outright, so
// construction is output-proportional rather than O(Σᵢ rᵢ·n).
type candSet struct {
	winner []int32     // per profile: the chosen attribute
	lists  [][][]int32 // [attribute][value] → ascending candidates (nil unless chosen)
}

// buildFlat evaluates the kernel over the distance matrices at
// bandwidth vector b, in flat layout.
func (e *Estimator) buildFlat(b []float64) *flatTables {
	d := len(e.Matrices)
	ft := &flatTables{off: make([]int, d), stride: make([]int, d)}
	size := 0
	for i, m := range e.Matrices {
		ft.off[i] = size
		ft.stride[i] = len(m)
		size += len(m) * len(m)
	}
	ft.w = make([]float64, size)
	for i, m := range e.Matrices {
		base := ft.off[i]
		for v, row := range m {
			fillWeights(ft.w[base+v*ft.stride[i]:], e.Kernel, row, b[i])
		}
	}
	return ft
}

// fillWeights evaluates one table row, devirtualizing the default
// kernel: the concrete Epanechnikov call inlines into the loop, where
// the interface dispatch cannot.
func fillWeights(dst []float64, k Func, xs []float64, b float64) {
	if ep, ok := k.(Epanechnikov); ok {
		for u, x := range xs {
			dst[u] = ep.Weight(x, b)
		}
		return
	}
	for u, x := range xs {
		dst[u] = k.Weight(x, b)
	}
}

// buildCands indexes the packed profiles by the support of the flat
// weight table w, once per pass. Construction is three
// cheap passes: per-(attribute, value) support sets over the domain
// (O(Σᵢ rᵢ²)), candidate-count tables from the bucket sizes (no
// profile scan), a winner per profile (O(n·d)) — then only the winning
// lists materialize.
func (e *Estimator) buildCands(w []float64) candSet {
	pp := e.packed
	d, n := pp.D, pp.N
	// Support sets and list lengths per (attribute, value).
	support := make([][][]int32, d) // [attribute][value] → partner values with weight
	lens := make([][]int32, d)      // [attribute][value] → candidate count
	off := 0
	for i, m := range e.Matrices {
		r := len(m)
		support[i] = make([][]int32, r)
		lens[i] = make([]int32, r)
		boff := e.bucketOff[i]
		for v := 0; v < r; v++ {
			rowIdx := off + v*r
			for dv := 0; dv < r; dv++ {
				if w[rowIdx+dv] != 0 {
					//lint:ignore hotalloc construction path, once per pass before the pair loop; support size is data-dependent and output-proportional
					support[i][v] = append(support[i][v], int32(dv))
					lens[i][v] += boff[dv+1] - boff[dv]
				}
			}
		}
		off += r * r
	}
	cs := candSet{winner: make([]int32, n), lists: make([][][]int32, d)}
	for i := range cs.lists {
		cs.lists[i] = make([][]int32, len(e.Matrices[i]))
	}
	for p := 0; p < n; p++ {
		best, bestLen := 0, int32(-1)
		for i := 0; i < d; i++ {
			if l := lens[i][pp.QI[p*d+i]]; bestLen < 0 || l < bestLen {
				best, bestLen = i, l
			}
		}
		cs.winner[p] = int32(best)
		v := int(pp.QI[p*d+best])
		if cs.lists[best][v] == nil && bestLen > 0 {
			cs.lists[best][v] = e.materializeList(best, v, support[best][v])
		}
	}
	return cs
}

// materializeList builds the ascending candidate list for one winning
// (attribute, value) pair. A single-value support shares the
// estimator's bucket; anything wider merges by scanning the attribute
// column once with the support marked.
func (e *Estimator) materializeList(i, v int, support []int32) []int32 {
	boff := e.bucketOff[i]
	if len(support) == 1 {
		dv := support[0]
		return e.buckets[i][boff[dv]:boff[dv+1]]
	}
	pp := e.packed
	d, n := pp.D, pp.N
	mark := make([]bool, len(e.Matrices[i]))
	total := int32(0)
	for _, dv := range support {
		mark[dv] = true
		total += boff[dv+1] - boff[dv]
	}
	out := make([]int32, 0, total)
	for u := 0; u < n; u++ {
		if mark[pp.QI[u*d+i]] {
			out = append(out, int32(u))
		}
	}
	return out
}

// bestList returns query profile p's candidate list — its most
// selective attribute's — as an ascending slice of profile indexes.
func (cs *candSet) bestList(pp *dataset.PackedProfiles, p int) []int32 {
	i := cs.winner[p]
	return cs.lists[i][pp.QI[p*pp.D+int(i)]]
}

// sliceDists carves one prob.Dist per profile out of a flat backing
// array — the only steady-state allocation a warm pass performs.
func sliceDists(backing []float64, n, m int) []prob.Dist {
	dists := make([]prob.Dist, n)
	for p := 0; p < n; p++ {
		dists[p] = prob.Dist(backing[p*m : (p+1)*m : (p+1)*m])
	}
	return dists
}

// finish normalizes one accumulated prior row in place, falling back
// to the whole-table distribution when every kernel weight vanished —
// the weakest consistent prior, as in the unflattened implementation.
func (e *Estimator) finish(acc []float64, denom float64) {
	if denom == 0 {
		copy(acc, e.whole)
		return
	}
	for i := range acc {
		acc[i] /= denom
	}
}

// priorAtPoint runs the Nadaraya–Watson sum for one arbitrary QI point
// q (value indexes), which need not occur in the table, with the pass
// proper's product (scalarProduct) and reduction.
func (e *Estimator) priorAtPoint(q []int, ft *flatTables) prob.Dist {
	pp := e.packed
	n, d, m := pp.N, pp.D, pp.M
	acc := make(prob.Dist, m)
	base := make([]int, d)
	for i := 0; i < d; i++ {
		base[i] = ft.off[i] + q[i]*ft.stride[i]
	}
	denom := 0.0
	for u := 0; u < n; u++ {
		if w := e.scalarProduct(ft, base, u); w != 0 {
			accumulate(pp, acc, &denom, u, w)
		}
	}
	e.finish(acc, denom)
	return acc
}
