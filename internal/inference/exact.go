package inference

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/prob"
)

// MaxExactStates bounds the forward/backward DP state space. A group of
// k tuples with r distinct sensitive values has at most Π(n_i+1) ≤ 2^k
// states; the default bound admits k well past the paper's N = 15
// experiments while refusing degenerate inputs that would thrash memory.
const MaxExactStates = 1 << 22

// ErrTooLarge reports a group whose exact posterior computation would
// exceed MaxExactStates.
var ErrTooLarge = errors.New("inference: group too large for exact inference")

// Exact computes exact posteriors by Bayesian inference over all
// assignments between the group's tuples and its sensitive multiset
// (Eq. 3/4). The likelihood P(S|E) is a permanent; we evaluate it and
// every leave-one-out permanent with a forward/backward DP over
// remaining-value counts:
//
//	f[j][c] = weight of assigning tuples 0..j-1, leaving counts c
//	b[j][c] = weight of assigning tuples j..k-1, consuming exactly c
//	P*(s_i|t_j) ∝ Σ_{c: c_i>0} f[j][c] · P(s_i|t_j) · b[j+1][c−e_i]
//
// Cost is O(k · states · r) time and O(k · states) space.
type Exact struct{}

// Name implements Method.
func (Exact) Name() string { return "exact" }

// Posteriors implements Method. It panics if the group exceeds
// MaxExactStates; callers choosing between methods should use
// ExactPosteriors and handle ErrTooLarge.
func (Exact) Posteriors(priors []prob.Dist, counts []int) []prob.Dist {
	out, err := ExactPosteriors(priors, counts)
	if err != nil {
		panic(err)
	}
	return out
}

// ExactPosteriors is Exact.Posteriors with explicit error reporting.
// The DP tables come from pooled scratch; the posteriors are carved
// from one fresh array, so they never alias it.
//
//detlint:hotpath
func ExactPosteriors(priors []prob.Dist, counts []int) ([]prob.Dist, error) {
	k := len(priors)
	if k == 0 {
		return nil, nil
	}
	sc := dpPool.Get().(*dpScratch)
	defer sc.release()
	dp, err := newStateDP(sc, priors, counts)
	if err != nil {
		return nil, err
	}
	f := dp.forward()
	totalWeight := f[k][0]
	if totalWeight == 0 {
		return nil, fmt.Errorf("inference: zero likelihood — priors are inconsistent with the group's sensitive values")
	}
	vals, n, radix, pr, digits := dp.vals, dp.n, dp.radix, dp.pr, dp.digits
	r, states, m := len(vals), dp.states, len(counts)

	// Backward, two state rows at a time: nxt is b[j+1], the weight of
	// tuples j+1..k-1 consuming exactly each state's counts, and cur
	// becomes b[j]. Tuple j's posterior reads only f[j] and b[j+1], so
	// it is taken as the pass reaches j.
	sc.b = grow(sc.b, 2*states)
	nxt, cur := sc.b[:states], sc.b[states:]
	nxt[0] = 1
	back := make([]float64, k*m)
	out := make([]prob.Dist, k)
	for j := k - 1; j >= 0; j-- {
		post := prob.Dist(back[j*m : (j+1)*m : (j+1)*m])
		for s, wf := range f[j] {
			if wf == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] > 0 && pr[j][i] > 0 {
					post[vals[i]] += float64(wf * pr[j][i] * nxt[s-radix[i]])
				}
			}
		}
		for i := range post {
			post[i] /= totalWeight
		}
		out[j] = post.Normalize()
		clear(cur)
		for s, w := range nxt {
			if w == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] < n[i] && pr[j][i] > 0 {
					cur[s+radix[i]] += float64(w * pr[j][i])
				}
			}
		}
		nxt, cur = cur, nxt
	}
	return out, nil
}

// dpScratch is the working memory of one exact-inference call — the
// state encoding, the prior matrix, the (k+1)·states forward table and
// the two backward rows — pooled so a warm attack's classes reuse the
// arrays instead of allocating them per class.
type dpScratch struct {
	vals, n, radix, digits []int
	pr, f, b               []float64
	prRows, fRows          [][]float64
}

var dpPool = sync.Pool{New: func() any { return new(dpScratch) }}

// maxPooledDP caps the table floats (32 MB) a pooled scratch may keep:
// a rare class near MaxExactStates releases its tables to the
// collector rather than pinning them in the pool.
const maxPooledDP = 1 << 22

// release returns sc to the pool unless it grew past maxPooledDP.
func (sc *dpScratch) release() {
	if cap(sc.f)+cap(sc.b) <= maxPooledDP {
		dpPool.Put(sc)
	}
}

// carveRows carves a zeroed nrows×width matrix from *back, with its
// row headers in *hdr, growing either only when too small.
func carveRows(back *[]float64, hdr *[][]float64, nrows, width int) [][]float64 {
	*back = grow(*back, nrows*width)
	*hdr = grow(*hdr, nrows)
	for j := range *hdr {
		(*hdr)[j] = (*back)[j*width : (j+1)*width : (j+1)*width]
	}
	return *hdr
}

// stateDP is one group's exact-inference state space, shared by
// ExactPosteriors and GroupLikelihood: the sensitive values present in
// the group, the mixed-radix encoding of remaining-count vectors over
// them, and the prior matrix restricted to them. Its slices belong to
// the scratch it was laid out in.
type stateDP struct {
	sc     *dpScratch
	vals   []int       // sensitive domain indexes present
	n      []int       // their counts
	radix  []int       // radix[i] is value i's place in the state encoding
	states int         // number of encoded states
	full   int         // the state of the full counts n
	pr     [][]float64 // pr[j][i] = prior of tuple j on present value i
	digits []int       // decode scratch
}

// newStateDP compresses a non-empty group to the values present in it
// and lays out its state space in sc, refusing one past MaxExactStates.
//
//detlint:hotpath
func newStateDP(sc *dpScratch, priors []prob.Dist, counts []int) (stateDP, error) {
	k := len(priors)
	sc.vals, sc.n = grow(sc.vals, len(counts)), grow(sc.n, len(counts))
	r, total := 0, 0
	for i, c := range counts {
		if c > 0 {
			sc.vals[r], sc.n[r] = i, c
			r++
			total += c
		}
	}
	if total != k {
		return stateDP{}, fmt.Errorf("inference: counts sum to %d but group has %d tuples", total, k)
	}
	vals, n := sc.vals[:r], sc.n[:r]
	radix := grow(sc.radix, r)
	sc.radix = radix
	states := 1
	for i, ni := range n {
		radix[i] = states
		states *= ni + 1
		if states > MaxExactStates {
			return stateDP{}, fmt.Errorf("%w: %d tuples, %d distinct values", ErrTooLarge, k, r)
		}
	}
	full := 0
	for i, ni := range n {
		full += ni * radix[i]
	}
	pr := carveRows(&sc.pr, &sc.prRows, k, r)
	for j, p := range priors {
		for i, v := range vals {
			pr[j][i] = p[v]
		}
	}
	sc.digits = grow(sc.digits, r)
	return stateDP{sc: sc, vals: vals, n: n, radix: radix, states: states, full: full, pr: pr, digits: sc.digits}, nil
}

// forward runs the forward pass over the k+1 state rows, carved from
// the scratch: f[j] maps state -> weight of assigning tuples 0..j-1
// starting from full counts, so f[k][0] is the group likelihood
// P(S|E). Unreachable states stay 0.
//
//detlint:hotpath
func (dp *stateDP) forward() [][]float64 {
	n, radix, pr, digits := dp.n, dp.radix, dp.pr, dp.digits
	k, r := len(pr), len(n)
	f := carveRows(&dp.sc.f, &dp.sc.fRows, k+1, dp.states)
	f[0][dp.full] = 1
	for j := 0; j < k; j++ {
		cur, nxt := f[j], f[j+1]
		for s, w := range cur {
			if w == 0 {
				continue
			}
			decode(s, radix, n, digits)
			for i := 0; i < r; i++ {
				if digits[i] > 0 && pr[j][i] > 0 {
					nxt[s-radix[i]] += float64(w * pr[j][i])
				}
			}
		}
	}
	return f
}

// decode writes the mixed-radix digits of state s into out.
func decode(s int, radix, n []int, out []int) {
	for i := len(radix) - 1; i >= 0; i-- {
		out[i] = s / radix[i] % (n[i] + 1)
	}
}

// GroupLikelihood returns P(S|E): the total weight of all assignments
// between tuples and the sensitive multiset, each distinct value
// mapping counted once. It is perm(M)/Π n_i! for the k×k prior matrix.
func GroupLikelihood(priors []prob.Dist, counts []int) (float64, error) {
	k := len(priors)
	if k == 0 {
		return 1, nil
	}
	sc := dpPool.Get().(*dpScratch)
	defer sc.release()
	dp, err := newStateDP(sc, priors, counts)
	if err != nil {
		return 0, err
	}
	return dp.forward()[k][0], nil
}
