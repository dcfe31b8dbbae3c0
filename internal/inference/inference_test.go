package inference

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/prob"
)

// RelativeError returns |a−b| / max(|a|,|b|, tiny), for the tests that
// cross-check the DP against Ryser.
func RelativeError(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-300 {
		return 0
	}
	return math.Abs(a-b) / den
}

// Domain for the paper's §III-B example: index 0 = HIV, 1 = none.
func paperPriors() []prob.Dist {
	return []prob.Dist{
		{0.05, 0.95}, // t1
		{0.05, 0.95}, // t2
		{0.30, 0.70}, // t3
	}
}

// paperCounts is the group multiset {none, none, HIV}.
func paperCounts() []int { return []int{1, 2} }

func TestExactPaperExample(t *testing.T) {
	// §III-B: the adversary's belief that t3 has HIV rises from 0.3 to
	// p1/(p1+p2+p3) with p1 = .95·.95·.3, p2 = p3 = .95·.05·.7.
	posts, err := ExactPosteriors(paperPriors(), paperCounts())
	if err != nil {
		t.Fatal(err)
	}
	p1 := 0.95 * 0.95 * 0.30
	p2 := 0.95 * 0.05 * 0.70
	p3 := 0.05 * 0.95 * 0.70
	want := p1 / (p1 + p2 + p3) // ≈ 0.8029, the paper rounds to 0.8
	if got := posts[2][0]; math.Abs(got-want) > 1e-12 {
		t.Errorf("P*(HIV|t3) = %.6f, want %.6f", got, want)
	}
	// Sanity from the text: "a significant increase" from 0.3.
	if posts[2][0] < 0.8 {
		t.Errorf("P*(HIV|t3) = %.4f, expected ≈ 0.80", posts[2][0])
	}
	// The two 'none' tuples share the remaining HIV probability.
	if math.Abs(posts[0][0]-posts[1][0]) > 1e-12 {
		t.Errorf("t1 and t2 posteriors differ: %v vs %v", posts[0], posts[1])
	}
	total := posts[0][0] + posts[1][0] + posts[2][0]
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("HIV column sums to %g, want 1 (exactly one HIV in group)", total)
	}
}

func TestExactTableIIIHardZeros(t *testing.T) {
	// §III-D, Table III: t1 and t2 cannot have HIV, so exact inference
	// concludes t3 has HIV with certainty.
	priors := []prob.Dist{
		{0, 1},
		{0, 1},
		{0.3, 0.7},
	}
	posts, err := ExactPosteriors(priors, paperCounts())
	if err != nil {
		t.Fatal(err)
	}
	if posts[2][0] != 1 {
		t.Errorf("P*(HIV|t3) = %g, want 1", posts[2][0])
	}
	if posts[0][0] != 0 || posts[1][0] != 0 {
		t.Errorf("t1/t2 should have zero HIV posterior: %v %v", posts[0], posts[1])
	}
}

func TestOmegaTableIII(t *testing.T) {
	// §III-D: on Table III the Ω-estimate yields 0.66 instead of 1 —
	// the documented inexactness of the random-world assumption.
	priors := []prob.Dist{
		{0, 1},
		{0, 1},
		{0.3, 0.7},
	}
	posts := Omega{}.Posteriors(priors, paperCounts())
	want := (1.0 * 0.3 / 0.3) / (1.0*0.3/0.3 + 2.0*0.7/2.7)
	if got := posts[2][0]; math.Abs(got-want) > 1e-12 {
		t.Errorf("Ω(HIV|t3) = %.6f, want %.6f (paper: 0.66)", got, want)
	}
	if math.Abs(want-0.6585) > 1e-3 {
		t.Fatalf("test vector drifted: %g", want)
	}
}

func TestOmegaUniformPriorsGiveGroupFrequency(t *testing.T) {
	// When every tuple has the same prior, the Ω-estimate equals the
	// group frequency n_i/k — and so does exact inference.
	priors := make([]prob.Dist, 4)
	for i := range priors {
		priors[i] = prob.Dist{0.25, 0.25, 0.5}
	}
	counts := []int{2, 1, 1}
	want := prob.Dist{0.5, 0.25, 0.25}
	for _, m := range []Method{Omega{}, Exact{}} {
		posts := m.Posteriors(priors, counts)
		for j, p := range posts {
			if !prob.Equal(p, want, 1e-9) {
				t.Errorf("%s tuple %d: %v, want %v", m.Name(), j, p, want)
			}
		}
	}
}

func TestPosteriorsAreDistributions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(8)
		m := 2 + rng.Intn(5)
		priors := make([]prob.Dist, k)
		svals := make([]int, k)
		for j := range priors {
			priors[j] = randomDist(rng, m)
			svals[j] = rng.Intn(m)
		}
		counts := GroupCounts(svals, m)
		om := Omega{}.Posteriors(priors, counts)
		ex, err := ExactPosteriors(priors, counts)
		if err != nil {
			return false
		}
		for j := 0; j < k; j++ {
			if om[j].Validate() != nil || ex[j].Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExactColumnSumsEqualCounts(t *testing.T) {
	// Invariant of exact inference: Σ_j P*(s_i|t_j) = n_i — the group
	// holds exactly n_i copies of value s_i.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(7)
		m := 2 + rng.Intn(4)
		priors := make([]prob.Dist, k)
		svals := make([]int, k)
		for j := range priors {
			priors[j] = randomDist(rng, m)
			svals[j] = rng.Intn(m)
		}
		counts := GroupCounts(svals, m)
		ex, err := ExactPosteriors(priors, counts)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			col := 0.0
			for j := 0; j < k; j++ {
				col += ex[j][i]
			}
			if math.Abs(col-float64(counts[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	// Cross-check the DP against explicit enumeration of assignments
	// for small groups.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(5)
		m := 2 + rng.Intn(3)
		priors := make([]prob.Dist, k)
		svals := make([]int, k)
		for j := range priors {
			priors[j] = randomDist(rng, m)
			svals[j] = rng.Intn(m)
		}
		counts := GroupCounts(svals, m)
		got, err := ExactPosteriors(priors, counts)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForcePosteriors(priors, svals, m)
		for j := 0; j < k; j++ {
			if !prob.Equal(got[j], want[j], 1e-9) {
				t.Fatalf("trial %d tuple %d: DP %v != brute force %v", trial, j, got[j], want[j])
			}
		}
	}
}

// bruteForcePosteriors enumerates all permutations of the sensitive
// value slots.
func bruteForcePosteriors(priors []prob.Dist, svals []int, m int) []prob.Dist {
	k := len(priors)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	total := 0.0
	acc := make([]prob.Dist, k)
	for j := range acc {
		acc[j] = make(prob.Dist, m)
	}
	var recurse func(depth int, weight float64)
	used := make([]bool, k)
	assigned := make([]int, k)
	recurse = func(depth int, weight float64) {
		if depth == k {
			total += weight
			for j := 0; j < k; j++ {
				acc[j][svals[assigned[j]]] += weight
			}
			return
		}
		for slot := 0; slot < k; slot++ {
			if used[slot] {
				continue
			}
			w := weight * priors[depth][svals[slot]]
			if w == 0 {
				continue
			}
			used[slot] = true
			assigned[depth] = slot
			recurse(depth+1, w)
			used[slot] = false
		}
	}
	recurse(0, 1)
	for j := range acc {
		for i := range acc[j] {
			acc[j][i] /= total
		}
		acc[j].Normalize()
	}
	return acc
}

func TestGroupLikelihoodMatchesRyser(t *testing.T) {
	// perm(M) = GroupLikelihood · Π n_i! for the expanded matrix.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(6)
		m := 2 + rng.Intn(4)
		priors := make([]prob.Dist, k)
		svals := make([]int, k)
		for j := range priors {
			priors[j] = randomDist(rng, m)
			svals[j] = rng.Intn(m)
		}
		counts := GroupCounts(svals, m)
		like, err := GroupLikelihood(priors, counts)
		if err != nil {
			t.Fatal(err)
		}
		mat := make([][]float64, k)
		for j := range mat {
			mat[j] = make([]float64, k)
		}
		pr := make([][]float64, k)
		for j := range pr {
			pr[j] = priors[j]
		}
		perm := PermanentFromGroup(pr, svals)
		factor := 1.0
		for _, c := range counts {
			factor *= Factorial(c)
		}
		if RelativeError(perm, like*factor) > 1e-9 {
			t.Fatalf("trial %d: perm %g != likelihood %g × %g", trial, perm, like, factor)
		}
	}
}

func TestPermanentRyserKnownValues(t *testing.T) {
	// Permanent of all-ones k×k matrix is k!.
	for k := 1; k <= 6; k++ {
		a := make([][]float64, k)
		for i := range a {
			a[i] = make([]float64, k)
			for j := range a[i] {
				a[i][j] = 1
			}
		}
		if got := PermanentRyser(a); RelativeError(got, Factorial(k)) > 1e-9 {
			t.Errorf("perm(ones %d) = %g, want %g", k, got, Factorial(k))
		}
	}
	// Permanent of identity is 1.
	id := [][]float64{{1, 0}, {0, 1}}
	if got := PermanentRyser(id); math.Abs(got-1) > 1e-12 {
		t.Errorf("perm(I2) = %g", got)
	}
	// Empty matrix has permanent 1.
	if got := PermanentRyser(nil); got != 1 {
		t.Errorf("perm(empty) = %g", got)
	}
	// 2×2 known value: perm([[a,b],[c,d]]) = ad + bc.
	if got := PermanentRyser([][]float64{{1, 2}, {3, 4}}); math.Abs(got-10) > 1e-12 {
		t.Errorf("perm = %g, want 10", got)
	}
}

func TestExactErrors(t *testing.T) {
	// Counts not matching group size.
	if _, err := ExactPosteriors(paperPriors(), []int{1, 1}); err == nil {
		t.Error("accepted mismatched counts")
	}
	// Zero likelihood: priors forbid the only possible assignment.
	priors := []prob.Dist{{0, 1}, {0, 1}}
	if _, err := ExactPosteriors(priors, []int{2, 0}); err == nil {
		t.Error("accepted inconsistent priors")
	}
}

func TestExactTooLarge(t *testing.T) {
	// A group with every value distinct has 2^k states; k = 40 must be
	// rejected, not attempted.
	k := 40
	priors := make([]prob.Dist, k)
	svals := make([]int, k)
	for j := range priors {
		priors[j] = prob.Uniform(k)
		svals[j] = j
	}
	_, err := ExactPosteriors(priors, GroupCounts(svals, k))
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestOmegaEmptyGroup(t *testing.T) {
	if got := (Omega{}).Posteriors(nil, nil); got != nil {
		t.Errorf("empty group posteriors = %v", got)
	}
}

func TestGroupCounts(t *testing.T) {
	counts := GroupCounts([]int{1, 1, 3}, 5)
	want := []int{0, 2, 0, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func randomDist(rng *rand.Rand, m int) prob.Dist {
	d := make(prob.Dist, m)
	for i := range d {
		d[i] = rng.Float64()
	}
	return d.Normalize()
}
