// Package inference computes the adversary's posterior belief over an
// anonymized group (§III). Given the group's prior beliefs and the
// multiset S of sensitive values published for the group, it answers:
// with what probability does tuple t_j take value s_i?
//
// Two methods are provided. Exact implements the general Bayesian
// formula (Eq. 3/4), whose normalizing constant is a matrix permanent —
// #P-complete in general, computed here exactly with a forward/backward
// dynamic program over remaining value counts, feasible for the small
// group sizes anonymization produces. Omega implements the paper's
// linear-time Ω-estimate (Eq. 5), a generalization of Lakshmanan et
// al.'s O-estimate under the random-world assumption.
package inference

import (
	"math"
	"sync"

	"repro/internal/prob"
)

// Method computes posteriors for a group from priors and the group's
// sensitive-value counts (a histogram over the full sensitive domain;
// counts must sum to len(priors)). Posteriors returned for tuples with
// the same prior may alias one another (Omega shares one per distinct
// prior), so callers treat them as read-only.
type Method interface {
	Posteriors(priors []prob.Dist, counts []int) []prob.Dist
	Name() string
}

// Omega is the Ω-estimate (Eq. 5):
//
//	Ω(s_i|t_j) ∝ n_i · P(s_i|t_j) / Σ_j' P(s_i|t_j')
//
// normalized per tuple. It is exact when all tuples share the same
// prior and is empirically within 0.1 of exact inference on real data
// (§V-B); it runs in O(k·m).
type Omega struct{}

// Name implements Method.
func (Omega) Name() string { return "omega" }

// Posteriors implements Method. The column sums add every tuple's
// prior in tuple order; a tuple's posterior then depends only on its
// prior's values and those sums, so it is computed once per distinct
// prior (FirstSharers) and shared, bit-identical to computing it per
// tuple. All posteriors of the class are carved from one array.
func (Omega) Posteriors(priors []prob.Dist, counts []int) []prob.Dist {
	sc := scratchPool.Get().(*scratch)
	first := grow(sc.first, len(priors))
	sc.firstSharers(priors, first)
	out := sc.omega(priors, counts, first)
	sc.first = first
	scratchPool.Put(sc)
	return out
}

// omega is Posteriors given the class's sharer table first, as
// FirstSharers fills it.
//
//detlint:hotpath
func (sc *scratch) omega(priors []prob.Dist, counts []int, first []int) []prob.Dist {
	k := len(priors)
	if k == 0 {
		return nil
	}
	m := len(counts)
	colSum := grow(sc.colSum, m)
	for _, p := range priors {
		for i := 0; i < m; i++ {
			colSum[i] += p[i]
		}
	}
	distinct := 0
	for j, f := range first {
		if f == j {
			distinct++
		}
	}
	back := make([]float64, distinct*m)
	out := make([]prob.Dist, k)
	for j, p := range priors {
		if f := first[j]; f != j {
			out[j] = out[f]
			continue
		}
		d := prob.Dist(back[:m:m])
		back = back[m:]
		for i := 0; i < m; i++ {
			if counts[i] == 0 || colSum[i] == 0 {
				continue
			}
			d[i] = float64(counts[i]) * p[i] / colSum[i]
		}
		out[j] = d.Normalize()
	}
	sc.colSum = colSum
	return out
}

// scratch is the working memory of one Posteriors or FirstSharers
// call, pooled so a warm attack's classes reuse it instead of
// allocating per class.
type scratch struct {
	colSum []float64
	first  []int
	slots  []int32 // FirstSharers' table
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns buf resized to n zeroed elements, reusing its array
// when it is large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// FirstSharers sets first[j] to the smallest i ≤ j whose prior is
// bit-identical to priors[j]. kernel.Estimator hands every record of a
// QI profile the same slice, which is found without reading it; equal
// values in different slices match too. Any method's posteriors, and
// any measure's gain, are functions of the prior's values, so tuples
// with one first sharer may share them bit for bit. The lookup hashes
// each prior's bits into a table of at least 2·len(priors) slots, so it
// runs in O(len(priors)·m) expected time, the order of Ω itself. first
// must have len(priors) elements; the result is the number of distinct
// priors, the j with first[j] = j.
func FirstSharers(priors []prob.Dist, first []int) int {
	sc := scratchPool.Get().(*scratch)
	distinct := sc.firstSharers(priors, first)
	scratchPool.Put(sc)
	return distinct
}

// firstSharers is FirstSharers over sc's table: open addressing with
// linear probing, slot values tuple index + 1 and 0 for empty.
//
//detlint:hotpath
func (sc *scratch) firstSharers(priors []prob.Dist, first []int) (distinct int) {
	size := 2
	for size < 2*len(priors) {
		size <<= 1
	}
	slots := grow(sc.slots, size)
	mask := uint64(size - 1)
	for j, p := range priors {
		h := hashBits(p) & mask
		for {
			s := slots[h]
			if s == 0 {
				slots[h] = int32(j + 1)
				first[j] = j
				distinct++
				break
			}
			if i := int(s - 1); prob.Identical(priors[i], p) {
				first[j] = i
				break
			}
			h = (h + 1) & mask
		}
	}
	sc.slots = slots
	return distinct
}

// hashBits folds a distribution's float bits FNV-1a style, one word
// per component, then runs MurmurHash3's 64-bit finalizer so every
// input bit reaches the low bits the table mask keeps: exact values
// such as point masses differ only in exponent bits.
func hashBits(p prob.Dist) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// GroupCounts converts the slice of sensitive value indexes of a group
// into a histogram over a domain of size m.
func GroupCounts(svals []int, m int) []int {
	counts := make([]int, m)
	for _, s := range svals {
		counts[s]++
	}
	return counts
}
