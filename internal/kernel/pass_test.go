package kernel

import (
	"math/bits"
	"testing"

	"repro/internal/adult"
	"repro/internal/dataset"
	"repro/internal/prob"
)

// PriorAt estimates the prior at an arbitrary QI point q (value
// indexes), which need not occur in the table.
func (e *Estimator) PriorAt(q []int, b []float64) (prob.Dist, error) {
	if err := e.validateBandwidth(b); err != nil {
		return nil, err
	}
	return e.priorAtPoint(q, e.weightTables(nil, b)), nil
}

// priorAtPoint runs the Nadaraya–Watson sum for one arbitrary QI point
// q (value indexes), which need not occur in the table, with the pass
// proper's sum and reduction.
func (e *Estimator) priorAtPoint(q []int, ft *flatTables) prob.Dist {
	d := e.packed.D
	e.buildSupport(ft)
	bs, rs := make([]int, d), make([]int, d)
	queryRows(e, ft, q, bs, rs)
	acc := make(prob.Dist, e.packed.M)
	e.finish(acc, e.sum(ft, bs, rs, make([]uint64, e.words), acc))
	return acc
}

// passCase is one estimator configuration the pass tests sweep.
type passCase struct {
	name string
	tab  *dataset.Table
	k    Func
	grid []float64
}

// passCases covers the pass's edges: b'=1 and the Gaussian kernel,
// where every or nearly every support bit is set; a tiny bandwidth,
// where some query profiles intersect no partner but themselves; and
// profile counts that are not a multiple of 64.
func passCases(t *testing.T) []passCase {
	t.Helper()
	return []passCase{
		{"adult-300", adult.Generate(300, 3), nil, []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1}},
		{"adult-300-gaussian", adult.Generate(300, 3), Gaussian{}, []float64{0.05, 0.3, 1}},
		{"adult-130", adult.Generate(130, 5), nil, []float64{0.05, 0.3, 1}},
	}
}

// TestPriorPassMatchesReference pins the support-intersection pass to
// the reference loop bit for bit, sequentially and on all cores. The
// sweep must include a query profile whose intersection is only
// itself, one whose intersection is every profile, a profile count
// that is not a multiple of 64, and surviving partners at bits 63 and
// 64. A table profile always survives against itself, so the empty
// intersection is TestPriorAtEmptyIntersection's.
func TestPriorPassMatchesReference(t *testing.T) {
	var alone, ragged, edge63, edge64, full bool
	for _, c := range passCases(t) {
		for _, workers := range []int{-1, 0} {
			e, err := NewEstimator(c.tab, adult.Hierarchies(), c.k)
			if err != nil {
				t.Fatal(err)
			}
			e.Workers = workers
			n := e.packed.N
			ragged = ragged || n%64 != 0
			for _, bw := range c.grid {
				b := UniformBandwidth(c.tab.Schema.D(), bw)
				ft := e.buildFlat(b)
				e.buildSupport(ft)
				for p := 0; p < n; p++ {
					mask := intersection(e, ft, p)
					count := 0
					for _, x := range mask {
						count += bits.OnesCount64(x)
					}
					alone = alone || count == 1
					full = full || count == n
					if len(mask) > 1 {
						edge63 = edge63 || mask[0]>>63 != 0
						edge64 = edge64 || mask[1]&1 != 0
					}
				}
				want := referencePriors(e, b)
				got, err := e.ProfilePriors(b)
				if err != nil {
					t.Fatal(err)
				}
				for pi := range got {
					for si, v := range got[pi] {
						if v != want[pi][si] {
							t.Fatalf("%s b=%g workers=%d profile %d component %d: pass %v != reference %v",
								c.name, bw, workers, pi, si, v, want[pi][si])
						}
					}
				}
			}
		}
	}
	for _, need := range []struct {
		ok   bool
		what string
	}{
		{alone, "a query profile whose intersection is only itself"},
		{ragged, "a profile count that is not a multiple of 64"},
		{edge63, "a surviving partner at bit 63"},
		{edge64, "a surviving partner at bit 64"},
		{full, "a query profile whose intersection is every profile"},
	} {
		if !need.ok {
			t.Errorf("sweep has no %s", need.what)
		}
	}
}

// TestPriorAtEmptyIntersection pins the whole-table fallback of a
// query point whose support intersection is empty: a point off the
// data under a tiny bandwidth, against the reference loop.
func TestPriorAtEmptyIntersection(t *testing.T) {
	tab := adult.Generate(200, 7)
	e, err := NewEstimator(tab, adult.Hierarchies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := UniformBandwidth(tab.Schema.D(), 0.02)
	ft := e.buildFlat(b)
	e.buildSupport(ft)
	// Find a point with an empty intersection by shifting one profile's
	// first value until no profile survives.
	q := make([]int, tab.Schema.D())
	found := false
	for v := 0; v < len(e.Matrices[0]) && !found; v++ {
		for i := range q {
			q[i] = int(e.packed.QI[i])
		}
		q[0] = v
		bs, rs := make([]int, len(q)), make([]int, len(q))
		queryRows(e, ft, q, bs, rs)
		mask := make([]uint64, e.words)
		ft.intersect(rs, mask)
		found = true
		for _, x := range mask {
			if x != 0 {
				found = false
			}
		}
	}
	if !found {
		t.Fatal("no query point with an empty support intersection")
	}
	got, err := e.PriorAt(q, b)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePriorsAt(e, q, b)
	for si, v := range got {
		if v != want[si] || v != e.whole[si] {
			t.Fatalf("component %d: PriorAt %v, reference %v, whole table %v", si, v, want[si], e.whole[si])
		}
	}
}

// TestPriorPassVisitsExactlyNonzeroPairs counts the pairs the pass
// multiplies — the set bits of each query profile's support
// intersection, including any padding bit past the last profile —
// against every pair of the table: each visited pair
// has a nonzero weight on every attribute, and every such pair is
// visited.
func TestPriorPassVisitsExactlyNonzeroPairs(t *testing.T) {
	for _, c := range passCases(t) {
		e, err := NewEstimator(c.tab, adult.Hierarchies(), c.k)
		if err != nil {
			t.Fatal(err)
		}
		pp := e.packed
		n, d := pp.N, pp.D
		for _, bw := range c.grid {
			ft := e.buildFlat(UniformBandwidth(d, bw))
			e.buildSupport(ft)
			visited, nonzero := 0, 0
			for p := 0; p < n; p++ {
				mask := intersection(e, ft, p)
				for u := 0; u < 64*e.words; u++ {
					hit := mask[u/64]>>(u%64)&1 != 0
					if hit {
						visited++
					}
					if u >= n {
						if hit {
							t.Fatalf("%s b=%g profile %d: visits padding bit %d of %d profiles", c.name, bw, p, u, n)
						}
						continue
					}
					all := true
					for i := 0; i < d; i++ {
						v, a := int(pp.QI[p*d+i]), int(pp.QI[u*d+i])
						if ft.w[ft.off[i]+v*ft.stride[i]+a] == 0 {
							all = false
						}
					}
					if all {
						nonzero++
					}
					if hit != all {
						t.Fatalf("%s b=%g pair (%d,%d): visited %v, every weight nonzero %v", c.name, bw, p, u, hit, all)
					}
				}
			}
			if visited != nonzero {
				t.Fatalf("%s b=%g: visited %d pairs, %d have every weight nonzero", c.name, bw, visited, nonzero)
			}
			t.Logf("%s b=%g: %d of %d pairs visited (%.1f%%)", c.name, bw, visited, n*n, 100*float64(visited)/float64(n*n))
		}
	}
}

// intersection returns query profile p's support intersection, from
// the support rows the pass ANDs for it.
func intersection(e *Estimator, ft *flatTables, p int) []uint64 {
	d := e.packed.D
	bs, rs := make([]int, d), make([]int, d)
	queryRows(e, ft, e.packed.QI[p*d:p*d+d], bs, rs)
	mask := make([]uint64, e.words)
	ft.intersect(rs, mask)
	return mask
}
