package core

import (
	"reflect"
	"testing"

	"repro/internal/adult"
	"repro/internal/kernel"
	"repro/internal/parallel"
)

// sweepGrid is the bandwidth grid the sweep tests exercise — mixed
// order on purpose, so nothing relies on the grid being sorted.
func sweepGrid(d int) [][]float64 {
	grid := [][]float64{}
	for _, b := range []float64{0.3, 0.2, 0.45, 0.25} {
		grid = append(grid, kernel.UniformBandwidth(d, b))
	}
	return grid
}

// TestAttackSweepMatchesIndependentAttacks pins the amortized sweep to
// N independent Attack calls, bitwise: shared prior passes, hoisted
// breach construction, and the fused dispatch must not change a single
// float.
func TestAttackSweepMatchesIndependentAttacks(t *testing.T) {
	table := adult.Generate(400, 5)
	p := Table5()[0]
	grid := sweepGrid(table.Schema.D())

	// Independent attacks on their own engine, so the sweep engine's
	// prior cache cannot leak into the reference.
	ref, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.AnonymizeModel(BTPrivacy, p)
	if err != nil {
		t.Fatal(err)
	}
	breach := ref.BreachTest(BTPrivacy, p)
	want := make([]*AttackReport, len(grid))
	for i, bvec := range grid {
		if want[i], err = ref.Attack(res, bvec, p.T, breach); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{-1, 2, 0} {
		e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(parallel.Resolve(workers)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.AttackSweep(res, grid, p.T, e.BreachTest(BTPrivacy, p))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(grid) {
			t.Fatalf("workers=%d: %d reports for %d bandwidths", workers, len(got), len(grid))
		}
		for i := range grid {
			if got[i].Vulnerable != want[i].Vulnerable || got[i].WorstRisk != want[i].WorstRisk {
				t.Fatalf("workers=%d bandwidth %d: sweep summary (%d, %v) != independent (%d, %v)",
					workers, i, got[i].Vulnerable, got[i].WorstRisk, want[i].Vulnerable, want[i].WorstRisk)
			}
			if !reflect.DeepEqual(got[i].Risks, want[i].Risks) {
				t.Fatalf("workers=%d bandwidth %d: sweep risks differ from independent attack", workers, i)
			}
		}
	}
}

// TestAttackSweepWarmCache checks a sweep over bandwidths the engine
// has already cached (plus fresh ones) still matches — the cache-hit
// and freshly computed bandwidths must agree.
func TestAttackSweepWarmCache(t *testing.T) {
	table := adult.Generate(300, 9)
	p := Table5()[0]
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AnonymizeModel(DistinctLDiversity, p)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	// Warm two of the four bandwidths through the single-path cache.
	if _, err := e.Priors(grid[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Priors(grid[3]); err != nil {
		t.Fatal(err)
	}
	breach := e.BreachTest(DistinctLDiversity, p)
	got, err := e.AttackSweep(res, grid, p.T, breach)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		want, err := e.Attack(res, bvec, p.T, breach)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Risks, want.Risks) || got[i].Vulnerable != want.Vulnerable {
			t.Fatalf("bandwidth %d: warm-cache sweep differs from single attack", i)
		}
	}
}

// TestWorstCaseRiskSweep pins the sweep form of Figure 3's quantity to
// per-bandwidth WorstCaseRisk calls.
func TestWorstCaseRiskSweep(t *testing.T) {
	table := adult.Generate(300, 9)
	e, err := New(table, adult.Hierarchies(), nil, nil, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AnonymizeModel(BTPrivacy, Table5()[0])
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(table.Schema.D())
	got, err := e.WorstCaseRiskSweep(res, grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, bvec := range grid {
		want, err := e.WorstCaseRisk(res, bvec)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("bandwidth %d: sweep risk %v != single %v", i, got[i], want)
		}
	}
}
