// The whole file is the kernel's allocation-audited region: hotalloc
// flags per-iteration allocation in every function here.
//
//detlint:hotpath
package kernel

import (
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/prob"
)

// This file is the estimator's one prior pass, the framework's
// dominant cost (the paper's Figure 4(b)). The profile set is packed
// once into a struct-of-arrays layout (dataset.PackedProfiles) and the
// per-attribute weight tables are flattened into one stride-indexed
// vector, so a pair's product is sequential loads and d multiplies
// with no pointer chasing.
//
// A pair of profiles weighs only if every one of its d attribute
// weights is nonzero, and compact-support kernels zero most of them.
// So each pass also builds a support bitmap per (attribute, value):
// bit u is set when profile u's value lies inside the query value's
// support. A query profile ANDs the rows of its d values into a mask
// and multiplies only the set bits, in ascending profile order. The
// AND costs profiles·⌈profiles/64⌉·d word operations — the
// O(profiles²·d) form scaled by 1/64 — and the multiplies scale with
// the survivors alone. On seed-42 Adult tables the survivors are a
// small share of the profiles in the support of the query's most
// selective attribute, the candidates an earlier lane pass multiplied:
//
//	b'                  0.05   0.3    0.5    0.7    1
//	n=2000  (1,632 p.)  2.1%   5.8%  10.0%  21.5%  22.0%
//	n=30162 (12,720 p.) 0.5%   1.7%   4.5%  14.0%  14.5%
//
// One sequential pass, lane pass → this pass (medians of 5
// alternating rounds, shared 2-vCPU VM):
//
//	n=2000   b'=0.05 4.29 → 1.00 ms   0.3 5.73 → 1.43   0.7 17.9 → 6.35
//	n=30162  b'=0.05  155 → 23.0 ms   0.3  216 → 37.4   0.7 1130 → 370
//
// A kernel without compact support (Gaussian) sets every bit; the pass
// then multiplies all pairs with the scalar loop, up to 16% slower
// than the lane pass was (72.1 → 83.4 ms at n=2000, b'=0.3).
//
// Every pair the pass skips has a zero factor, so its product is zero
// and the reference loop skips it too; every pair it visits multiplies
// the same values in the same order (profile weight first, then
// attributes 0..d-1) with the same float expressions, in ascending u
// for every query profile regardless of worker count. The results are
// therefore bit-identical to the sequential, pre-flattening
// implementation (pinned by golden_test.go).

// pTile is the number of query profiles one parallel.For task owns.
const pTile = 64

// flatTables is one bandwidth's weight-table set, flattened, with its
// support bitmaps: attribute i's table occupies w[off[i] :
// off[i]+stride[i]²] row-major, so the weight for query value v
// against data value u is w[off[i] + v·stride[i] + u]; and support,
// filled by the pass (buildSupport), holds one row per (attribute,
// value) in the layout of the estimator's value bitmaps, whose bit u is
// set when profile u's attribute-i weight against v is nonzero.
type flatTables struct {
	w       []float64
	off     []int
	stride  []int
	support []uint64
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

// buildSupport ORs each (attribute, value)'s support row together from
// the value bitmaps of its nonzero-weight partner values.
func (e *Estimator) buildSupport(ft *flatTables) {
	ft.support = make([]uint64, len(e.values))
	nw := e.words
	for i, r := range ft.stride {
		for v := 0; v < r; v++ {
			dst := ft.support[(e.rows[i]+v)*nw : (e.rows[i]+v+1)*nw]
			for a, w := range ft.w[ft.off[i]+v*r : ft.off[i]+(v+1)*r] {
				if w != 0 {
					src := e.values[(e.rows[i]+a)*nw : (e.rows[i]+a+1)*nw]
					for k := range dst {
						dst[k] |= src[k]
					}
				}
			}
		}
	}
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

// intersect writes a query's support intersection into mask: the AND
// of its d support rows, whose word offsets are rs. Bit j of word k is
// set when profile 64k+j has a nonzero weight on every attribute.
func (ft *flatTables) intersect(rs []int, mask []uint64) {
	copy(mask, ft.support[rs[0]:])
	for _, r := range rs[1:] {
		row := ft.support[r : r+len(mask)]
		for k := range mask {
			mask[k] &= row[k]
		}
	}
}

// queryRows sets, for a query with value q[i] on attribute i, bs[i] to
// the flat index of its attribute-i weight row and rs[i] to the word
// offset of its support row.
func queryRows[V int | int32](e *Estimator, ft *flatTables, q []V, bs, rs []int) {
	for i, v := range q {
		bs[i] = ft.off[i] + int(v)*ft.stride[i]
		rs[i] = (e.rows[i] + int(v)) * e.words
	}
}

// sum runs one query's Nadaraya–Watson sum into acc and returns its
// denominator. bs[i] is the flat index of the query's attribute-i
// weight row and rs[i] the word offset of its support row. Each
// surviving profile u, in ascending order, has its product computed —
// profile weight first, then attributes 0..d-1 — and folded in.
func (e *Estimator) sum(ft *flatTables, bs, rs []int, mask []uint64, acc []float64) float64 {
	pp := e.packed
	d := pp.D
	wsum := 0.0
	ft.intersect(rs, mask)
	for k, x := range mask {
		for ; x != 0; x &= x - 1 {
			u := k*64 + bits.TrailingZeros64(x)
			uq := pp.QI[u*d : u*d+d]
			w := pp.Weights[u]
			for i, b := range bs {
				w *= ft.w[b+int(uq[i])]
			}
			// Every factor is nonzero, but the product can still
			// underflow; the reference loop skips such a pair too.
			if w != 0 {
				accumulate(pp, acc, &wsum, u, w)
			}
		}
	}
	return wsum
}

// accumulate folds one surviving pair (product w, profile u) into a
// query profile's denominator and histogram row.
func accumulate(pp *dataset.PackedProfiles, acc []float64, wsum *float64, u int, w float64) {
	*wsum += w
	wu := pp.Weights[u]
	// w/1 is exactly w — most profiles are singletons, so the
	// division usually vanishes.
	scale := w
	if wu != 1 {
		scale = w / wu
	}
	m := pp.M
	for _, si := range pp.NZIdx[pp.NZOff[u]:pp.NZOff[u+1]] {
		acc[si] += scale * pp.Counts[u*m+int(si)]
	}
}

// priorPass is the estimator's prior pass: each query profile's sum
// over its support intersection, normalized into out[p*m : (p+1)*m].
// Each query profile is computed wholly by one worker in fixed
// ascending order, so output is bit-identical at any worker count.
func (e *Estimator) priorPass(ft *flatTables, out []float64) {
	pp := e.packed
	n, d, m := pp.N, pp.D, pp.M
	e.buildSupport(ft)
	tiles := (n + pTile - 1) / pTile
	parallel.For(e.Workers, tiles, func(ti int) {
		p0 := ti * pTile
		p1 := min(p0+pTile, n)
		bs, rs := make([]int, d), make([]int, d)
		mask := make([]uint64, e.words)
		for p := p0; p < p1; p++ {
			queryRows(e, ft, pp.QI[p*d:p*d+d], bs, rs)
			acc := out[p*m : p*m+m]
			e.finish(acc, e.sum(ft, bs, rs, mask, acc))
		}
	})
}
