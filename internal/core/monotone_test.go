package core

import (
	"math/rand"
	"testing"

	"repro/internal/adult"
)

// TestMergeMonotonicity measures, per model (each composed with
// k-anonymity), whether merging two disjoint groups that each satisfy
// the requirement yields a group that satisfies it: the property a
// pruning lattice search over full-domain generalizations would rely
// on. Groups of 2–8 records are drawn at random from n=120 synthetic
// tables. Both ℓ-diversity models and t-closeness (EMD is convex in
// the group distribution) must never fail. (B,t) and skyline are not
// monotone: a few merges fail, e.g. worst gains 0.183 and 0.185 merge
// to 0.209 at t=0.2; their counts are logged and recorded in DESIGN.md
// "Generalization monotonicity".
func TestMergeMonotonicity(t *testing.T) {
	const tables, pairs = 3, 3000
	// Thresholds where a good share of random small groups satisfy.
	cases := []struct {
		model    string
		t        float64
		monotone bool
	}{
		{"distinct", 0.2, true}, {"prob", 0.2, true}, {"tclose", 0.45, true},
		{"bt", 0.2, false}, {"skyline", 0.2, false},
	}
	for _, c := range cases {
		model, p := c.model, Params{K: 2, L: 2, T: c.t, B: 0.3}
		trials, fails := 0, 0
		for seed := int64(1); seed <= tables; seed++ {
			e, err := New(adult.Generate(120, seed), adult.Hierarchies(), nil, nil, WithWorkers(-1))
			if err != nil {
				t.Fatal(err)
			}
			req, err := e.RequirementByName(model, p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < pairs; i++ {
				perm := rng.Perm(e.Table.N())
				na, nb := 2+rng.Intn(7), 2+rng.Intn(7)
				a, b := perm[:na], perm[na:na+nb]
				if !req.Satisfied(a) || !req.Satisfied(b) {
					continue
				}
				trials++
				if !req.Satisfied(perm[:na+nb]) {
					fails++
				}
			}
		}
		t.Logf("%s t=%g: %d of %d merges of two satisfying groups fail", model, c.t, fails, trials)
		if trials < 500 {
			t.Errorf("%s: only %d merges of satisfying groups; the property is barely exercised", model, trials)
		}
		if c.monotone && fails > 0 {
			t.Errorf("%s: %d of %d merges fail; the model should be monotone under merging", model, fails, trials)
		}
	}
}
