//go:build !race

// The race detector drops sync.Pool entries at random and so inflates
// allocation counts; the bound holds for the program as built.

package core

import (
	"context"
	"testing"

	"repro/internal/adult"
	"repro/internal/kernel"
)

// TestWarmAttackAllocations bounds a warm attack's allocations on the
// BenchmarkBreachTest setup: an n=2000 (B,t) release attacked at
// b'=0.4 with the priors cached, on one worker. Classes share the
// attack's scratch, Ω carves a class's posteriors from one array and
// the measure allocates nothing, so what remains is a few slices per
// attack and two per class — well under the bound, where measuring
// per record made about ten thousand.
func TestWarmAttackAllocations(t *testing.T) {
	const bound = 1000
	e, err := New(adult.Generate(2000, 42), adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	p := Table5()[0]
	res, _, err := e.RunAlgorithm("mondrian", BTPrivacy.Key(), p)
	if err != nil {
		t.Fatal(err)
	}
	bvec := kernel.UniformBandwidth(e.Table.Schema.D(), 0.4)
	if _, err := e.Priors(bvec); err != nil {
		t.Fatal(err)
	}
	breach := e.BreachTest(BTPrivacy, p)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.AttackWith(context.Background(), nil, res, bvec, p.T, breach); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm attack: %.0f allocations over %d classes", allocs, len(res.Groups))
	if allocs > bound {
		t.Errorf("warm attack made %.0f allocations, want ≤ %d", allocs, bound)
	}
}
