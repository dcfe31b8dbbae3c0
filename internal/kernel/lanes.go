// The whole file is the kernel's allocation-audited region: hotalloc
// flags per-iteration allocation in every function here.
//
//detlint:hotpath
package kernel

import (
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// This file is the estimator's one prior pass, in lane form. A scalar
// loop (scalarProduct) computes one candidate at a time: a d-long
// dependent multiply chain per pair, each step waiting on the previous
// load×multiply. The lane pass walks each query profile's candidate
// list in blocks of eight and runs the chains of a whole block
// together: for each attribute, the block loads its lane's table
// entries and multiplies into a fixed-size stack array over a
// compiler-known bound, so the per-lane products are independent
// chains the CPU overlaps instead of one serialized chain.
//
// Bit-identity with the scalar loop (and therefore with the goldens):
// each candidate's product multiplies the same values in the same
// order (profile weight first, then attributes 0..d-1); the scalar
// loop's early break is replaced by a block-level one that fires only
// when every lane's running product is zero — kernel weights are
// nonnegative, so a zero lane stays zero under further multiplies and
// contributes nothing either way; and the accumulation phase folds
// surviving lanes in ascending candidate order, exactly the scalar
// order. The at most seven candidates past the last full block run the
// scalar loop itself.

// lane8 computes the kernel products of eight consecutive candidates
// us against the query profile's table rows bs, in float64.
func lane8(pp *dataset.PackedProfiles, tw []float64, bs []int, us []int32) (wl [8]float64) {
	d := pp.D
	var qo [8]int
	for k := 0; k < 8; k++ {
		u := int(us[k])
		qo[k] = u * d
		wl[k] = pp.Weights[u]
	}
	qi := pp.QI
	for i, b := range bs {
		for k := 0; k < 8; k++ {
			wl[k] *= tw[b+int(qi[qo[k]+i])]
		}
		// Weights are nonnegative, so the lane sum is zero exactly
		// when every lane is — the block-wide form of the scalar
		// pass's early break.
		if wl[0]+wl[1]+wl[2]+wl[3]+wl[4]+wl[5]+wl[6]+wl[7] == 0 {
			return
		}
	}
	return
}

// scalarProduct computes one pair's kernel product — the tail path for
// candidates past the last full block, exactly the scalar loop the
// goldens pin.
func (e *Estimator) scalarProduct(ft *flatTables, bs []int, u int) float64 {
	pp := e.packed
	d := pp.D
	uq := pp.QI[u*d : u*d+d]
	w := pp.Weights[u]
	for i, b := range bs {
		w *= ft.w[b+int(uq[i])]
		if w == 0 {
			break
		}
	}
	return w
}

// accumulate folds one surviving pair (product w, candidate u) into a
// query profile's denominator and histogram row — the reduction shared
// by the lane blocks, the scalar tail and priorAtPoint.
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

// priorPassLanes is the estimator's prior pass. Each query profile
// walks its ascending candidate list (hotpath.go) in full blocks of
// eight through lane8, then the remaining tail through the scalar loop,
// and writes its normalized prior into out[p*m : (p+1)*m]. Each query
// profile is computed wholly by one worker in fixed ascending-candidate
// order, so output is bit-identical at any worker count.
func (e *Estimator) priorPassLanes(ft *flatTables, out []float64) {
	pp := e.packed
	n, d, m := pp.N, pp.D, pp.M
	cands := e.buildCands(ft.w)
	tiles := (n + pTile - 1) / pTile
	parallel.For(e.Workers, tiles, func(ti int) {
		p0 := ti * pTile
		p1 := min(p0+pTile, n)
		// bs[i] is the flat index of profile p's attribute-i weight row,
		// so the inner loop finds each pair weight with one add.
		bs := make([]int, d)
		for p := p0; p < p1; p++ {
			for i := range bs {
				bs[i] = ft.off[i] + int(pp.QI[p*d+i])*ft.stride[i]
			}
			acc := out[p*m : p*m+m]
			list := cands.bestList(pp, p)
			wsum := 0.0
			c := 0
			for ; c+8 <= len(list); c += 8 {
				us := list[c : c+8 : c+8]
				wl := lane8(pp, ft.w, bs, us)
				for k := 0; k < 8; k++ {
					if wl[k] != 0 {
						accumulate(pp, acc, &wsum, int(us[k]), wl[k])
					}
				}
			}
			for ; c < len(list); c++ {
				if w := e.scalarProduct(ft, bs, int(list[c])); w != 0 {
					accumulate(pp, acc, &wsum, int(list[c]), w)
				}
			}
			e.finish(acc, wsum)
		}
	})
}
