package inference

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/prob"
)

// referenceOmega is Omega.Posteriors as it was before it evaluated
// once per distinct prior, kept verbatim as the oracle: one fresh
// posterior per tuple.
func referenceOmega(priors []prob.Dist, counts []int) []prob.Dist {
	k := len(priors)
	if k == 0 {
		return nil
	}
	m := len(counts)
	colSum := make([]float64, m)
	for _, p := range priors {
		for i := 0; i < m; i++ {
			colSum[i] += p[i]
		}
	}
	out := make([]prob.Dist, k)
	for j, p := range priors {
		d := make(prob.Dist, m)
		for i := 0; i < m; i++ {
			if counts[i] == 0 || colSum[i] == 0 {
				continue
			}
			d[i] = float64(counts[i]) * p[i] / colSum[i]
		}
		out[j] = d.Normalize()
	}
	return out
}

// sharedClass draws a class the way kernel.Estimator hands one out:
// k tuples over a few profiles, every tuple of a profile holding the
// same prior slice, plus one copy of a profile's values in a slice of
// its own. It returns the class's priors and counts.
func sharedClass(rng *rand.Rand, k, m int) ([]prob.Dist, []int) {
	profiles := make([]prob.Dist, 1+rng.Intn(4))
	for i := range profiles {
		profiles[i] = randomDist(rng, m)
	}
	priors := make([]prob.Dist, k)
	svals := make([]int, k)
	for j := range priors {
		priors[j] = profiles[rng.Intn(len(profiles))]
		svals[j] = rng.Intn(m)
	}
	priors[rng.Intn(k)] = profiles[0].Clone()
	return priors, GroupCounts(svals, m)
}

func TestFirstSharers(t *testing.T) {
	a := prob.Dist{0.25, 0.75}
	b := prob.Dist{0.5, 0.5}
	negZero := prob.Dist{math.Copysign(0, -1), 1}
	priors := []prob.Dist{a, b, a, a.Clone(), prob.Dist{0, 1}, negZero, b}
	first := make([]int, len(priors))
	distinct := FirstSharers(priors, first)
	want := []int{0, 1, 0, 0, 4, 5, 1}
	for j := range want {
		if first[j] != want[j] {
			t.Fatalf("first = %v, want %v (-0 and +0 differ in their bits)", first, want)
		}
	}
	if distinct != 4 {
		t.Errorf("%d distinct priors, want 4", distinct)
	}
	if FirstSharers(nil, nil) != 0 {
		t.Error("an empty class has distinct priors")
	}
}

// TestOmegaPerDistinctPriorMatchesPerTuple pins the shared evaluation
// to the per-tuple reference bit for bit, and checks that tuples with
// one prior share one posterior.
func TestOmegaPerDistinctPriorMatchesPerTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		k, m := 1+rng.Intn(40), 1+rng.Intn(14)
		priors, counts := sharedClass(rng, k, m)
		got, want := Omega{}.Posteriors(priors, counts), referenceOmega(priors, counts)
		first := make([]int, k)
		FirstSharers(priors, first)
		for j := range want {
			for i := range want[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("trial %d tuple %d component %d: %v != per-tuple %v", trial, j, i, got[j][i], want[j][i])
				}
			}
			if f := first[j]; f != j && &got[j][0] != &got[f][0] {
				t.Fatalf("trial %d: tuple %d holds tuple %d's prior but not its posterior", trial, j, f)
			}
		}
	}
}

// TestOmegaWithSharerTableMatchesPosteriors pins Ω given the caller's
// sharer table — TryPosteriors, as privacy.ClassGains calls it — to
// Omega.Posteriors bit for bit, sharing included, on classes with
// repeated prior slices and with value-equal priors held in distinct
// slices.
func TestOmegaWithSharerTableMatchesPosteriors(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		k, m := 1+rng.Intn(40), 1+rng.Intn(14)
		priors, counts := sharedClass(rng, k, m)
		priors[rng.Intn(k)] = priors[rng.Intn(k)].Clone()
		first := make([]int, k)
		FirstSharers(priors, first)
		got, err := TryPosteriors(Omega{}, priors, counts, first)
		if err != nil {
			t.Fatal(err)
		}
		want := Omega{}.Posteriors(priors, counts)
		for j := range want {
			if !prob.Identical(got[j], want[j]) {
				t.Fatalf("trial %d tuple %d: %v != Posteriors %v", trial, j, got[j], want[j])
			}
			if f := first[j]; f != j && &got[j][0] != &got[f][0] {
				t.Fatalf("trial %d: tuple %d holds tuple %d's prior but not its posterior", trial, j, f)
			}
		}
	}
	if got, err := TryPosteriors(Omega{}, nil, []int{0, 0}, nil); got != nil || err != nil {
		t.Errorf("empty class: %v, %v", got, err)
	}
}

// TestPooledScratchIsolated runs Omega and Exact concurrently on
// classes of different sizes: neither pooled scratch may leak between
// calls, and no exact posterior may alias a later call's tables.
func TestPooledScratchIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	type class struct {
		priors     []prob.Dist
		counts     []int
		want, post []prob.Dist
	}
	classes := make([]class, 16)
	for i := range classes {
		priors, counts := sharedClass(rng, 1+rng.Intn(60), 6)
		classes[i] = class{priors: priors, counts: counts, want: referenceOmega(priors, counts)}
	}
	exact := make([]class, 16)
	for i := range exact {
		priors, counts := sharedClass(rng, 1+rng.Intn(10), 6)
		want, err := ExactPosteriors(priors, counts)
		if err != nil {
			t.Fatal(err)
		}
		// Copy the first answer out before any other call can reuse
		// the pool it was computed in.
		post := make([]prob.Dist, len(want))
		for j := range want {
			post[j] = append(prob.Dist(nil), want[j]...)
		}
		exact[i] = class{priors: priors, counts: counts, want: post, post: want}
	}
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			ok := true
			for r := 0; r < 50; r++ {
				for i, c := range classes {
					got := Omega{}.Posteriors(c.priors, c.counts)
					for j := range got {
						if !prob.Identical(got[j], c.want[j]) {
							ok = false
						}
					}
					e := exact[i]
					got, err := ExactPosteriors(e.priors, e.counts)
					if err != nil {
						ok = false
						continue
					}
					for j := range got {
						if !prob.Identical(got[j], e.want[j]) {
							ok = false
						}
					}
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Fatal("concurrent Posteriors differ from the sequential answers")
		}
	}
	for i, e := range exact {
		for j := range e.post {
			if !prob.Identical(e.post[j], e.want[j]) {
				t.Fatalf("class %d tuple %d: an exact posterior changed after later calls", i, j)
			}
		}
	}
}
